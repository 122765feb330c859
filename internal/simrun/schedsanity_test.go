package simrun

import (
	"testing"

	"github.com/datastates/mlpoffload/internal/cluster"
	"github.com/datastates/mlpoffload/internal/model"
)

// TestSchedPathSanity pins the scheduler accounting of the one pipeline:
// the paper's approaches run through a single FIFO class, PriorityIO
// splits the same traffic into aio's classes, and the engine-true
// configuration (adds migration and coalescing) is not slower than the
// plain classed run.
func TestSchedPathSanity(t *testing.T) {
	m, err := model.ByName("40B")
	if err != nil {
		t.Fatal(err)
	}
	run := func(ap Approach) *Result {
		res, err := Run(Config{
			Testbed:    cluster.Testbed1(),
			Model:      m,
			Approach:   ap,
			Iterations: 4,
			Warmup:     1,
		})
		if err != nil {
			t.Fatalf("%s: %v", ap.Name, err)
		}
		t.Logf("%s: iter=%.2fs update=%.2fs hits=%d misses=%d plan=%s",
			ap.Name, res.IterTime(), res.Mean.Phases.Update,
			res.Mean.CacheHits, res.Mean.CacheMisses, res.PlanRatio)
		return res
	}

	paper := run(MLPOffload())
	if len(paper.Classes) != 1 || paper.Classes["fifo"].Ops == 0 {
		t.Errorf("paper approach should run through one fifo class: %v", paper.Classes)
	}
	classed := MLPOffload()
	classed.Name = "MLP-Offload (priority I/O)"
	classed.PriorityIO = true
	viaSched := run(classed)
	for _, class := range []string{"prefetch", "flush"} {
		if viaSched.Classes[class].Ops == 0 {
			t.Errorf("priority I/O moved no %s ops: %v", class, viaSched.Classes)
		}
	}
	engine := run(EngineTrue())
	if engine.IterTime() > viaSched.IterTime()*1.10 {
		t.Errorf("engine-true config %.2fs is >10%% slower than the priority I/O run %.2fs",
			engine.IterTime(), viaSched.IterTime())
	}
}

// TestCoalescedFetchesNeverSkipped checks the cache and fetch accounting
// identities on every approach the figures and the matrix run. A
// coalesced batch takes same-tier subgroups from ahead of the prefetch
// head, so the window can fill while an earlier subgroup is still
// unissued; the consumer must still fetch it rather than count a hit. So:
// a cold first iteration has no hits, no iteration has more hits than the
// host caches hold, every subgroup is a hit or a miss, and every miss
// reads its state (12 B/param), plus its FP32 gradients (4 B/param) when
// gradient flushes are not skipped.
func TestCoalescedFetchesNeverSkipped(t *testing.T) {
	const (
		sgParams = 1e6
		params   = 13e8
	)
	approaches := []Approach{DeepSpeedZeRO3(), MLPOffload(), EngineTrue()}
	approaches = append(approaches, AblationLadderNVMe()[1:]...)
	approaches = append(approaches, AblationLadderMultiPath()...)
	tb := cluster.Testbed1()
	for _, ap := range approaches {
		t.Run(ap.Name, func(t *testing.T) {
			res, err := Run(Config{
				Testbed: tb, Model: model.Config{Name: "1.3B", NominalParams: params},
				Approach: ap, SubgroupParams: sgParams,
				Iterations: 4, CacheSlots: 96, PrefetchDepth: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			fetchBytes := sgParams * 12.0
			if !ap.SkipGradFlush {
				fetchBytes = sgParams * 16.0
			}
			subgroups := int64(params / sgParams)
			for i, it := range res.Series.Iterations() {
				maxHits := res.CacheSlotsPerWorker * tb.GPUsPerNode
				if i == 0 {
					maxHits = 0
				}
				if it.CacheHits > maxHits {
					t.Errorf("iteration %d: %d hits, %d misses; at most %d hits fit the host caches",
						i, it.CacheHits, it.CacheMisses, maxHits)
				}
				if got := int64(it.CacheHits + it.CacheMisses); got != subgroups {
					t.Errorf("iteration %d: %d hits + %d misses, want %d subgroups",
						i, it.CacheHits, it.CacheMisses, subgroups)
				}
				if want := float64(it.CacheMisses) * fetchBytes; it.BytesRead != want {
					t.Errorf("iteration %d: read %g B for %d misses, want %g", i, it.BytesRead, it.CacheMisses, want)
				}
			}
		})
	}
}
