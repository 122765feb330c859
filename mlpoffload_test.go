package mlpoffload

import (
	"math"
	"strings"
	"testing"
)

func TestPublicEngineRoundTrip(t *testing.T) {
	tiers := []TierSpec{
		{Tier: NewMemTier("nvme"), ReadBW: 2e9, WriteBW: 2e9},
		{Tier: NewMemTier("pfs"), ReadBW: 1e9, WriteBW: 1e9},
	}
	cfg := MLPConfig(0, 50_000, 5_000, tiers, NewNodeLocks(true))
	cfg.Hyper.LR = 0.05
	cfg.Grad = QuadraticGradFn(2)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 120; i++ {
		if _, err := eng.TrainIteration(i); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]float32, 50_000)
	if err := eng.GatherParams(out); err != nil {
		t.Fatal(err)
	}
	for i, p := range out {
		if math.Abs(float64(p)-2) > 0.1 {
			t.Fatalf("param %d = %v through public API", i, p)
		}
	}
}

func TestPublicFileTier(t *testing.T) {
	ft, err := NewFileTier("nvme", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := BaselineConfig(0, 10_000, 2_000, []TierSpec{{Tier: ft, ReadBW: 1e9, WriteBW: 1e9}})
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.TrainIteration(0); err != nil {
		t.Fatal(err)
	}
}

func TestPublicThrottledTier(t *testing.T) {
	tier := NewThrottledTier(NewMemTier("slow"), ThrottleSpec{
		ReadBW: 100e6, WriteBW: 50e6, InterferenceAlpha: 0.2,
	})
	if tier.Name() != "slow" {
		t.Errorf("Name = %q", tier.Name())
	}
}

func TestModelsAndTestbeds(t *testing.T) {
	if len(Models()) != 7 {
		t.Errorf("Models() = %d entries", len(Models()))
	}
	m, err := ModelByName("280B")
	if err != nil || m.Params() != 280e9 {
		t.Errorf("280B lookup: %v %v", m, err)
	}
	if Testbed1().GPUsPerNode != 4 || Testbed2().GPUsPerNode != 4 {
		t.Error("testbeds malformed")
	}
}

func TestPublicSim(t *testing.T) {
	m, _ := ModelByName("40B")
	ds, err := RunSim(SimConfig{
		Testbed: Testbed1(), Model: m, Approach: DeepSpeedZeRO3(),
		Iterations: 3, Warmup: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := RunSim(SimConfig{
		Testbed: Testbed1(), Model: m, Approach: MLPOffload(),
		Iterations: 3, Warmup: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sp := ds.IterTime() / mlp.IterTime(); sp < 2 {
		t.Errorf("public sim speedup = %.2fx", sp)
	}
}

func TestRunExperimentAndIDs(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 18 {
		t.Fatalf("ExperimentIDs = %d", len(ids))
	}
	out, err := RunExperiment("tab2", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "280B") {
		t.Errorf("tab2 output malformed:\n%s", out)
	}
	if _, err := RunExperiment("nope", 3); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestDefaultAdamHyper(t *testing.T) {
	h := DefaultAdamHyper()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	out, err := RunAllExperiments(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"Table 1", "Figure 7", "Figure 15", "Extension"} {
		if !strings.Contains(out, needle) {
			t.Errorf("combined output missing %q", needle)
		}
	}
}

func TestFacadeGPT(t *testing.T) {
	g, err := NewGPT(GPTConfig{Vocab: 8, Seq: 4, Dim: 8, Heads: 2, Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	params := make([]float32, g.ParamCount())
	if err := g.Init(params, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Loss(params, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	h16 := make([]FP16, 4)
	f32 := []float32{1, 2, 3, 4}
	_ = h16
	out := make([]float32, 4)
	if n := DecodeFP16(out, h16); n != 4 {
		t.Errorf("DecodeFP16 = %d", n)
	}
	_ = f32
}

func TestPublicCodecTier(t *testing.T) {
	spec, err := ParseCodecSpec("flate+crc")
	if err != nil {
		t.Fatal(err)
	}
	tiers := []TierSpec{
		{Tier: NewMemTier("nvme"), ReadBW: 2e9, WriteBW: 2e9, Codec: spec},
		{Tier: NewMemTier("pfs"), ReadBW: 1e9, WriteBW: 1e9, Codec: spec},
	}
	cfg := MLPConfig(0, 50_000, 5_000, tiers, NewNodeLocks(true))
	cfg.Hyper.LR = 0.05
	cfg.Grad = QuadraticGradFn(2)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var last Iteration
	for i := 0; i < 4; i++ {
		if last, err = eng.TrainIteration(i); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	if r := last.CompressionRatio(); r <= 1 {
		t.Fatalf("compression ratio %.2f, want > 1", r)
	}
	params := make([]float32, 50_000)
	if err := eng.GatherParams(params); err != nil {
		t.Fatal(err)
	}
	// Adam advances ~LR per step: after 4 steps every parameter sits near
	// 4*LR on its way to the target.
	for i, p := range params {
		if math.Abs(float64(p)-4*0.05) > 0.05 {
			t.Fatalf("param %d = %v did not move toward target through the codec path", i, p)
		}
	}

	// Standalone wrapper + typed corruption error.
	ct, err := NewCodecTier(NewMemTier("m"), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := ct.Describe(); !strings.Contains(got, "flate") {
		t.Fatalf("Describe() = %q", got)
	}
}
