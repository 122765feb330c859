package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/datastates/mlpoffload/internal/hostcache"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/tierlock"
)

// memTiers returns n in-memory tiers with distinct names and bandwidths.
func memTiers(bws ...float64) []TierSpec {
	out := make([]TierSpec, len(bws))
	for i, bw := range bws {
		out[i] = TierSpec{
			Tier:    storage.NewMemTier(fmt.Sprintf("tier%d", i)),
			ReadBW:  bw,
			WriteBW: bw,
		}
	}
	return out
}

func run(t *testing.T, e *Engine, iters int) {
	t.Helper()
	for i := 0; i < iters; i++ {
		if _, err := e.TrainIteration(i); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	bad := []Config{
		{},
		{Params: 10},                    // no subgroup size
		{Params: 10, SubgroupParams: 5}, // no tiers
		{Params: -1, SubgroupParams: 5, Tiers: memTiers(1)}, // bad params
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	// Tier with zero bandwidth rejected.
	cfg := BaselineConfig(0, 100, 10, []TierSpec{{Tier: storage.NewMemTier("x")}})
	if _, err := New(cfg); err == nil {
		t.Error("zero-bandwidth tier accepted")
	}
}

func TestBaselineTrainsAndOffloads(t *testing.T) {
	cfg := BaselineConfig(0, 1000, 100, memTiers(100))
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Subgroups() != 10 {
		t.Fatalf("subgroups = %d", e.Subgroups())
	}
	run(t, e, 3)
	m := e.Series().Mean()
	if m.ParamsUpdated != 1000 {
		t.Errorf("params updated = %d", m.ParamsUpdated)
	}
	if m.BytesRead == 0 || m.BytesWritten == 0 {
		t.Error("no storage I/O recorded — offloading not exercised")
	}
	// Baseline reads 16 B/param (12 state + 4 grads) for every miss.
	st := cfg.Tiers[0].Tier.Stats()
	if st.BytesRead == 0 {
		t.Error("tier saw no reads")
	}
}

func TestConvergenceThroughOffloadPath(t *testing.T) {
	// End-to-end numeric check: quadratic objective drives every param to
	// the target *through* serialization, offload, fetch, FP16 h2d.
	for _, mode := range []string{"baseline", "mlp"} {
		t.Run(mode, func(t *testing.T) {
			var cfg Config
			if mode == "baseline" {
				cfg = BaselineConfig(0, 500, 64, memTiers(1000))
			} else {
				cfg = MLPConfig(0, 500, 64, memTiers(1000, 600), tierlock.NewManager(true))
			}
			cfg.Hyper.LR = 0.05
			cfg.Grad = QuadraticGradFn(3)
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			run(t, e, 300)
			params := make([]float32, 500)
			if err := e.GatherParams(params); err != nil {
				t.Fatal(err)
			}
			for i, p := range params {
				if math.Abs(float64(p)-3) > 0.1 {
					t.Fatalf("param %d = %v, want ~3 (offload path corrupts state?)", i, p)
				}
			}
		})
	}
}

func TestModesNumericallyEquivalent(t *testing.T) {
	// The paper's optimizations are performance-only: identical gradients
	// must yield identical master parameters in both modes.
	mk := func(mlp bool) []float32 {
		var cfg Config
		if mlp {
			cfg = MLPConfig(0, 300, 37, memTiers(500, 300), tierlock.NewManager(true))
		} else {
			cfg = BaselineConfig(0, 300, 37, memTiers(500))
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 0; i < 5; i++ {
			if _, err := e.TrainIteration(i); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]float32, 300)
		if err := e.GatherParams(out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := mk(false)
	ours := mk(true)
	for i := range base {
		if base[i] != ours[i] {
			t.Fatalf("param %d differs: baseline %v vs mlp %v", i, base[i], ours[i])
		}
	}
}

func TestCacheHitsAlternatingVsSequential(t *testing.T) {
	mkRun := func(order hostcache.Order) (hits, misses int) {
		cfg := BaselineConfig(0, 1000, 100, memTiers(1000))
		cfg.Order = order
		cfg.SkipGradFlush = true // isolate ordering effect
		cfg.HostCacheSlots = 4
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 0; i < 4; i++ {
			it, err := e.TrainIteration(i)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 { // skip cold first iteration
				hits += it.CacheHits
				misses += it.CacheMisses
			}
		}
		return
	}
	seqHits, _ := mkRun(hostcache.Sequential)
	altHits, altMisses := mkRun(hostcache.Alternating)
	if seqHits != 0 {
		t.Errorf("sequential hits = %d, want 0 (thrashing)", seqHits)
	}
	// 3 measured iterations, 4 slots each.
	if altHits != 12 {
		t.Errorf("alternating hits = %d, want 12", altHits)
	}
	if altMisses != 3*(10-4) {
		t.Errorf("alternating misses = %d, want 18", altMisses)
	}
}

func TestMultiPathPlacementDistribution(t *testing.T) {
	locks := tierlock.NewManager(true)
	cfg := MLPConfig(0, 3000, 100, memTiers(530, 360), locks)
	cfg.AdaptivePlacement = false
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	run(t, e, 2)
	it := e.Series().Iterations()[1]
	// Both storage paths plus host must hold state.
	if it.TierBytes["tier0"] == 0 || it.TierBytes["tier1"] == 0 {
		t.Errorf("tier distribution = %v; both paths should be used", it.TierBytes)
	}
	if it.TierBytes["host"] == 0 {
		t.Errorf("host cache empty: %v", it.TierBytes)
	}
	// Roughly bandwidth-proportional: tier0/tier1 ≈ 530/360 ≈ 1.47.
	ratio := it.TierBytes["tier0"] / it.TierBytes["tier1"]
	if ratio < 1.0 || ratio > 2.2 {
		t.Errorf("placement ratio = %.2f, want ~1.5", ratio)
	}
}

func TestGradientAccumulation(t *testing.T) {
	cfg := BaselineConfig(0, 200, 50, memTiers(1000))
	cfg.GradAccumSteps = 4
	cfg.Grad = func(_ int, _ int64, _ float32) float32 { return 0.25 }
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	run(t, e, 1)
	// 4 accumulation steps of 0.25 = total gradient 1.0 per element; the
	// first Adam step with g=1 moves params by ~ -lr (mhat/vhat ≈ 1).
	params := make([]float32, 200)
	if err := e.GatherParams(params); err != nil {
		t.Fatal(err)
	}
	wantMove := cfg.Hyper.LR
	for i, p := range params {
		if math.Abs(float64(p)+wantMove) > wantMove*0.2 {
			t.Fatalf("param %d = %v, want ~%v (accumulated grad wrong)", i, p, -wantMove)
		}
	}
}

func TestUnevenLastSubgroup(t *testing.T) {
	cfg := BaselineConfig(0, 250, 100, memTiers(1000)) // 100+100+50
	cfg.Grad = QuadraticGradFn(1)
	cfg.Hyper.LR = 0.05
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	run(t, e, 50)
	params := make([]float32, 250)
	if err := e.GatherParams(params); err != nil {
		t.Fatal(err)
	}
	for i := 200; i < 250; i++ {
		if math.Abs(float64(params[i])-1) > 0.2 {
			t.Fatalf("tail subgroup param %d = %v not trained", i, params[i])
		}
	}
}

func TestFourWorkersSharedNode(t *testing.T) {
	// Four engines (one per "GPU") share two tiers and the node lock
	// manager, as on one Testbed node.
	nvme := storage.NewMemTier("nvme")
	pfs := storage.NewMemTier("pfs")
	locks := tierlock.NewManager(true)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tiers := []TierSpec{
				{Tier: nvme, ReadBW: 690, WriteBW: 530},
				{Tier: pfs, ReadBW: 360, WriteBW: 360},
			}
			cfg := MLPConfig(rank, 400, 80, tiers, locks)
			e, err := New(cfg)
			if err != nil {
				errs[rank] = err
				return
			}
			defer e.Close()
			for i := 0; i < 3; i++ {
				if _, err := e.TrainIteration(i); err != nil {
					errs[rank] = err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// Exclusive access must have been exercised.
	if locks.Stats("nvme").Grants == 0 || locks.Stats("pfs").Grants == 0 {
		t.Error("tier locks never taken")
	}
	// Keys from all ranks coexist without collision.
	keys, _ := nvme.Keys(context.Background())
	if len(keys) == 0 {
		t.Error("nvme holds no objects")
	}
}

func TestFaultInjectionSurfacesErrors(t *testing.T) {
	boom := errors.New("disk on fire")
	tier := &storage.FaultTier{
		Tier:      storage.NewMemTier("flaky"),
		FailEvery: 3,
		Err:       boom,
		FailReads: true,
	}
	cfg := BaselineConfig(0, 400, 50, []TierSpec{{Tier: tier, ReadBW: 100, WriteBW: 100}})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var sawErr bool
	for i := 0; i < 4; i++ {
		if _, err := e.TrainIteration(i); err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("unexpected error type: %v", err)
			}
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("injected read faults never surfaced")
	}
}

func TestAdaptivePlacementReactsToSlowTier(t *testing.T) {
	// tier1 claims high nominal bandwidth but is actually 50x slower;
	// adaptive placement should shift subgroups to tier0 over iterations.
	fast := storage.NewMemTier("fast")
	slowInner := storage.NewMemTier("slow")
	// Bursts below the 1.2 KB subgroup object: with the default quarter
	// second of burst every transfer here would run at memory speed.
	slow := storage.NewThrottled(slowInner, storage.ThrottleConfig{
		ReadBW: 200 * 1024, WriteBW: 200 * 1024, ReadBurst: 512, WriteBurst: 512,
	})
	tiers := []TierSpec{
		{Tier: fast, ReadBW: 1000, WriteBW: 1000},
		{Tier: slow, ReadBW: 1000, WriteBW: 1000}, // lying nominal figures
	}
	cfg := MLPConfig(0, 2000, 100, tiers, nil)
	cfg.HostCacheSlots = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	before := e.Plan().Counts[1]
	run(t, e, 3)
	after := e.Plan().Counts[1]
	if after >= before {
		t.Errorf("slow tier share did not shrink: %d -> %d", before, after)
	}
}

func TestCloseIdempotentAndRejects(t *testing.T) {
	cfg := BaselineConfig(0, 100, 50, memTiers(100))
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close()
	if _, err := e.TrainIteration(0); err == nil {
		t.Error("closed engine accepted work")
	}
}

func TestGatherParamsValidatesLength(t *testing.T) {
	cfg := BaselineConfig(0, 100, 50, memTiers(100))
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.GatherParams(make([]float32, 99)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestEffectiveIOMetricPopulated(t *testing.T) {
	// Throttled tier gives measurable transfer durations, so EffectiveIO
	// must be finite and positive.
	inner := storage.NewMemTier("nvme")
	th := storage.NewThrottled(inner, storage.ThrottleConfig{
		ReadBW: 4 << 20, WriteBW: 2 << 20,
	})
	cfg := BaselineConfig(0, 30000, 3000, []TierSpec{{Tier: th, ReadBW: 4 << 20, WriteBW: 2 << 20}})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	run(t, e, 2)
	it := e.Series().Iterations()[1]
	if eio := it.EffectiveIO(); eio <= 0 || math.IsInf(eio, 0) {
		t.Errorf("EffectiveIO = %v", eio)
	}
	if it.Phases.Update <= 0 {
		t.Error("update phase not timed")
	}
}
