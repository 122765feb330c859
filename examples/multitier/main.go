// Multitier: the laptop-scale analogue of the paper's headline experiment.
// Four worker engines (one per simulated GPU) share bandwidth-throttled
// NVMe and PFS tiers on one "node"; we train the same scaled-down shard
// under the DeepSpeed-ZeRO-3 baseline and under MLP-Offload and compare
// iteration times — every byte really moves through the throttled tiers.
//
// The second act demonstrates plan convergence: mid-run, the PFS slows to
// a crawl (external load on the shared file system); adaptive placement
// replans toward the NVMe and the live migrator moves the displaced
// subgroups at Migration priority until reality matches the plan again.
package main

import (
	"fmt"
	"log"
	"sync"

	mlpoffload "github.com/datastates/mlpoffload"
)

const (
	paramsPerWorker = 1_500_000
	subgroupParams  = 150_000
	iterations      = 5
	workers         = 4
)

// Table-1 bandwidth ratios scaled to ~1/10000 so an iteration takes
// milliseconds: NVMe 690/530 KB/s -> use MB/s scale for speed.
func tiers(includePFS bool) []mlpoffload.TierSpec {
	nvme := mlpoffload.NewThrottledTier(mlpoffload.NewMemTier("nvme"),
		mlpoffload.ThrottleSpec{ReadBW: 69e6, WriteBW: 53e6, InterferenceAlpha: 0.2})
	out := []mlpoffload.TierSpec{{Tier: nvme, ReadBW: 69e6, WriteBW: 53e6}}
	if includePFS {
		pfs := mlpoffload.NewThrottledTier(mlpoffload.NewMemTier("pfs"),
			mlpoffload.ThrottleSpec{ReadBW: 36e6, WriteBW: 36e6, InterferenceAlpha: 0.1})
		out = append(out, mlpoffload.TierSpec{Tier: pfs, ReadBW: 36e6, WriteBW: 36e6})
	}
	return out
}

// trainNode runs `workers` engines concurrently and returns the mean
// iteration time across workers.
func trainNode(mode string) float64 {
	ts := tiers(mode == "mlp")
	locks := mlpoffload.NewNodeLocks(mode == "mlp")
	var wg sync.WaitGroup
	totals := make([]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var cfg mlpoffload.EngineConfig
			if mode == "mlp" {
				cfg = mlpoffload.MLPConfig(rank, paramsPerWorker, subgroupParams, ts, locks)
			} else {
				cfg = mlpoffload.BaselineConfig(rank, paramsPerWorker, subgroupParams, ts)
			}
			eng, err := mlpoffload.NewEngine(cfg)
			if err != nil {
				log.Fatal(err)
			}
			defer eng.Close()
			for i := 0; i < iterations; i++ {
				if _, err := eng.TrainIteration(i); err != nil {
					log.Fatal(err)
				}
			}
			totals[rank] = eng.Series().Mean().Phases.Total()
		}(w)
	}
	wg.Wait()
	sum := 0.0
	for _, t := range totals {
		sum += t
	}
	return sum / workers
}

// convergenceDemo trains one MLP-Offload worker, slows the PFS mid-run,
// and traces how the placement plan and the live migrator converge the
// subgroup layout onto the new bandwidth reality.
func convergenceDemo() {
	// Bursts below one subgroup object (1.8 MB here) so the *observed*
	// per-transfer bandwidth tracks the configured rates and the
	// estimator sees the slowdown.
	const burst = 1 << 20
	nvme := mlpoffload.NewThrottledTier(mlpoffload.NewMemTier("nvme"),
		mlpoffload.ThrottleSpec{ReadBW: 200e6, WriteBW: 200e6, ReadBurst: burst, WriteBurst: burst})
	pfs := mlpoffload.NewThrottledTier(mlpoffload.NewMemTier("pfs"),
		mlpoffload.ThrottleSpec{ReadBW: 100e6, WriteBW: 100e6, ReadBurst: burst, WriteBurst: burst})
	ts := []mlpoffload.TierSpec{
		{Tier: nvme, ReadBW: 200e6, WriteBW: 200e6},
		{Tier: pfs, ReadBW: 100e6, WriteBW: 100e6},
	}
	cfg := mlpoffload.MLPConfig(0, paramsPerWorker, subgroupParams, ts, nil)
	eng, err := mlpoffload.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	fmt.Println("\nplan convergence under a mid-run PFS slowdown (1 worker):")
	fmt.Printf("%-5s %-22s %-11s %-11s %-11s\n", "iter", "plan", "misplaced", "migrations", "displaced")
	const slowdownAt = 3
	// displaced sums |ΔCounts[0]| over the replans: with two tiers that is
	// exactly how many subgroups the plans reassigned, so the migrator
	// must never have to move more.
	var displaced int64
	for i := 0; i < 10; i++ {
		if i == slowdownAt {
			pfs.SetRates(10e6, 10e6) // external load: PFS drops to 1/10th
			fmt.Println("      >>> pfs collapses to 10 MB/s <<<")
		}
		before := eng.Plan().Counts[0]
		if _, err := eng.TrainIteration(i); err != nil {
			log.Fatal(err)
		}
		eng.Drain() // quiesce migrations so the placement snapshot is stable
		displaced += int64(abs(eng.Plan().Counts[0] - before))
		fmt.Printf("%-5d %-22s %-11d %-11d %-11d\n",
			i, eng.Plan().Ratio(), eng.MisplacedSubgroups(), eng.MigrationStats().Moves, displaced)
	}
	if n := eng.MisplacedSubgroups(); n != 0 {
		log.Fatalf("placement did not converge: %d subgroups off their planned tier", n)
	}
	if moves := eng.MigrationStats().Moves; moves > displaced {
		log.Fatalf("migrator moved %d subgroups, but the replans displaced only %d", moves, displaced)
	}
	fmt.Println("placement converged: every subgroup is on its planned tier")
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func main() {
	fmt.Println("training 4 workers x 1.5M params on one throttled node...")
	base := trainNode("baseline")
	fmt.Printf("DeepSpeed ZeRO-3 (NVMe only, sequential, grad flush): %.3fs/iter\n", base)
	mlp := trainNode("mlp")
	fmt.Printf("MLP-Offload (NVMe+PFS, alternating, skip grads):      %.3fs/iter\n", mlp)
	fmt.Printf("speedup: %.2fx (paper reports ~2.5x at 40B-280B scale)\n", base/mlp)
	convergenceDemo()
}
