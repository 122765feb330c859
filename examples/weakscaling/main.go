// Weakscaling: reproduce the paper's Figure 11/12 sweep with the
// paper-scale simulator — model size grows with node count on Testbed-2
// (Polaris, 4xA100-40GB per node) up to 280B parameters on 32 GPUs.
package main

import (
	"fmt"
	"log"

	mlpoffload "github.com/datastates/mlpoffload"
)

func main() {
	cases := []struct {
		model string
		nodes int
	}{
		{"40B", 1}, {"70B", 2}, {"100B", 3}, {"130B", 4}, {"280B", 8},
	}
	fmt.Printf("%-6s %-6s %-22s %-22s %-8s\n", "model", "gpus", "DeepSpeed ZeRO-3 (s)", "MLP-Offload (s)", "speedup")
	for _, c := range cases {
		m, err := mlpoffload.ModelByName(c.model)
		if err != nil {
			log.Fatal(err)
		}
		run := func(ap mlpoffload.SimApproach) *mlpoffload.SimResult {
			r, err := mlpoffload.RunSim(mlpoffload.SimConfig{
				Testbed: mlpoffload.Testbed2(), Model: m, Nodes: c.nodes,
				Approach: ap, Iterations: 6, Warmup: 2,
			})
			if err != nil {
				log.Fatal(err)
			}
			return r
		}
		ds := run(mlpoffload.DeepSpeedZeRO3())
		mlp := run(mlpoffload.MLPOffload())
		fmt.Printf("%-6s %-6d %-22.1f %-22.1f %.2fx\n",
			c.model, c.nodes*4, ds.IterTime(), mlp.IterTime(), ds.IterTime()/mlp.IterTime())
	}
	fmt.Println("\npaper: MLP-Offload sustains ~2x faster iterations at scale (Fig. 11)")
}
