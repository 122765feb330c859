// Command perfbench is the repository's benchmark: it drives the real
// offloading engine through the public API (NewEngine, TrainIteration,
// Checkpoint, Restore, GatherParams) on one workload and prints every
// metric by name with its unit.
//
//	go run . --workload mlp-io --seed 1 --seconds 10 --trace 0
//
// One process, one engine, a closed loop: each TrainIteration starts when
// the previous call returns. Inputs are generated from --seed before any
// timer starts. Set-up builds the engine setupReps times on fresh tiers
// and keeps the last; warmupIters iterations run before the measured
// window of --seconds. After the window every workload takes a final
// checkpoint, restores it into a fresh engine over the same tiers, and
// replays the run on a serial in-memory reference engine. The run fails
// unless the live, restored and reference parameters are bit-identical.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same program
// with timing decorators on every tier and spans around every engine call
// and the gradient callback, prints the per-layer metrics, and writes the
// spans to <workdir>/trace-<workload>-s<seed>.json. The last line of
// standard output is the JSON result; the lines before it are report-only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	name := flag.String("workload", "", "workload: mlp-io, zero3-io, mlp-cpu or mlp-ckpt-codec")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build/perfbench", "directory for scratch tiers, traces and results")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	r := &runner{w: w, tr: tr, seed: *seed, dir: *workdir}
	runErr := r.run(*seconds)
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
	}

	res := result{Correct: runErr == nil && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	if runErr == nil {
		for _, l := range r.report() {
			fmt.Println(l)
		}
		if tr == nil {
			res.Metrics = r.endToEnd()
		} else {
			res.Metrics = r.perLayer()
			path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-s%d.json", w.name, *seed))
			if err := tr.write(path, r.traceExtra()); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				res.Correct = false
			}
		}
	}
	out, _ := json.Marshal(res) // plain structs of numbers and strings always encode
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}
