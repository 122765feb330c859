package simrun

import (
	"testing"

	"github.com/datastates/mlpoffload/internal/cluster"
	"github.com/datastates/mlpoffload/internal/model"
)

// TestSchedPathSanity pins the relationship between the two simulator
// pipelines: routing the paper's MLP-Offload configuration through the
// scheduler-based engine model (PriorityIO) must reproduce the original
// analytic pipeline's iteration time closely — same tiers, same plan,
// same cache — while additionally exposing per-class I/O statistics.
// A large gap here means one of the two transfer models drifted.
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
	sched := MLPOffload()
	sched.Name = "MLP-Offload (sched path)"
	sched.PriorityIO = true
	viaSched := run(sched)

	if len(paper.Classes) != 0 {
		t.Errorf("paper pipeline reported class stats: %v", paper.Classes)
	}
	if len(viaSched.Classes) == 0 {
		t.Error("scheduler pipeline reported no class stats")
	}
	for _, class := range []string{"prefetch", "flush"} {
		if viaSched.Classes[class].Ops == 0 {
			t.Errorf("scheduler pipeline moved no %s ops: %v", class, viaSched.Classes)
		}
	}
	// Same physics, two mechanisms: iteration times must agree within a
	// modelling tolerance (the sched path resolves contention op by op,
	// the paper path via the interference curve).
	if d := relDrift(viaSched.IterTime(), paper.IterTime()); d > 0.15 {
		t.Errorf("sched path iter %.2fs vs paper path %.2fs: drift %.3f > 0.15",
			viaSched.IterTime(), paper.IterTime(), d)
	}
	if viaSched.Mean.CacheHits != paper.Mean.CacheHits ||
		viaSched.Mean.CacheMisses != paper.Mean.CacheMisses {
		t.Errorf("cache behaviour differs across pipelines: sched %d/%d, paper %d/%d",
			viaSched.Mean.CacheHits, viaSched.Mean.CacheMisses,
			paper.Mean.CacheHits, paper.Mean.CacheMisses)
	}
	// The engine-true configuration (adds migration + coalescing) must
	// still run and not be slower than the plain sched path.
	engine := run(EngineTrue())
	if engine.IterTime() > viaSched.IterTime()*1.10 {
		t.Errorf("engine-true config %.2fs is >10%% slower than plain sched path %.2fs",
			engine.IterTime(), viaSched.IterTime())
	}
}

// TestCoalescedFetchesNeverSkipped: a coalesced batch takes same-tier
// subgroups from ahead of the prefetch head, so the window can fill while
// an earlier subgroup is still unissued. The consumer must still fetch it
// rather than count a hit: a cold first iteration has no hits, no later
// one has more hits than the host caches hold, and every miss reads its
// state.
func TestCoalescedFetchesNeverSkipped(t *testing.T) {
	const sgParams = 1e6
	tb := cluster.Testbed1()
	res, err := Run(Config{
		Testbed: tb, Model: model.Config{Name: "1.3B", NominalParams: 13e8},
		Approach: EngineTrue(), SubgroupParams: sgParams,
		Iterations: 4, CacheSlots: 96, PrefetchDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range res.Series.Iterations() {
		maxHits := res.CacheSlotsPerWorker * tb.GPUsPerNode
		if i == 0 {
			maxHits = 0
		}
		if it.CacheHits > maxHits {
			t.Errorf("iteration %d: %d hits, %d misses; at most %d hits fit the host caches",
				i, it.CacheHits, it.CacheMisses, maxHits)
		}
		if want := float64(it.CacheMisses) * sgParams * 12; it.BytesRead != want {
			t.Errorf("iteration %d: read %g B for %d misses, want %g", i, it.BytesRead, it.CacheMisses, want)
		}
	}
}
