package main

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/datastates/mlpoffload"
)

// TestWrapForwardsExactCapabilities checks that a timing decorator has
// exactly the optional capabilities of the tier below it, for every kind
// of tier the benchmark stacks.
func TestWrapForwardsExactCapabilities(t *testing.T) {
	file, err := mlpoffload.NewFileTier("file", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	codecSpec, err := mlpoffload.ParseCodecSpec("flate+crc")
	if err != nil {
		t.Fatal(err)
	}
	codec, err := mlpoffload.NewCodecTier(mlpoffload.NewMemTier("inner"), codecSpec)
	if err != nil {
		t.Fatal(err)
	}
	tiers := map[string]mlpoffload.Tier{
		"mem":       mlpoffload.NewMemTier("mem"),
		"file":      file,
		"throttled": mlpoffload.NewThrottledTier(mlpoffload.NewMemTier("thr"), mlpoffload.ThrottleSpec{ReadBW: 1e9, WriteBW: 1e9}),
		"codec":     codec,
	}
	tr := newTracer()
	for name, inner := range tiers {
		d, err := tr.wrap(inner, "storage."+name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := capsOf(d), capsOf(inner); got != want {
			t.Errorf("%s: decorator capabilities %04b, inner tier %04b", name, got, want)
		}
	}
}

// runCounts drives a shrunken copy of w for a few iterations and a
// checkpoint, and returns what a decorator could change: every tier's
// Tier.Stats, the ClassIO fetch op count and the parameter digest.
func runCounts(t *testing.T, w workload, tr *tracer) (string, error) {
	t.Helper()
	w.params, w.subgroupParams = 400_000, 50_000
	r := &runner{w: w, tr: tr, in: newInputs(7, w.params), digests: map[string]string{}}
	st, err := w.buildStack(filepath.Join(t.TempDir(), "tiers"), tr)
	if err != nil {
		return "", err
	}
	defer st.close()
	cfg := w.config(st.specs, r.in, tr.grad(r.in.grad))
	// A fixed placement: adaptive replanning reacts to measured
	// bandwidth, so its migrations differ from run to run either way.
	cfg.AdaptivePlacement = false
	eng, err := mlpoffload.NewEngine(cfg)
	if err != nil {
		return "", err
	}
	defer eng.Close()
	// Fetches are waited inside their iteration; flushes are counted by
	// the iteration in which they complete, which timing decides.
	fetches := 0
	for i := 0; i < 4; i++ {
		it, err := eng.TrainIteration(i)
		if err != nil {
			return "", err
		}
		for _, c := range []string{"demand-fetch", "prefetch", "grad-read"} {
			fetches += it.ClassIO[c].Ops
		}
	}
	writer := mlpoffload.NewCheckpointWriter(st.ckpt, ckptPrefix)
	defer writer.Close()
	if _, err := eng.Checkpoint(context.Background(), 4, writer); err != nil {
		return "", err
	}
	if err := r.gather("live", eng, make([]float32, w.params)); err != nil {
		return "", err
	}
	return fmt.Sprintf("digest %s\nfetch ops %d\ntier stats %v", r.digests["live"], fetches, tierStats(st)), nil
}

// TestTracedRunMatchesUntraced checks that tracing leaves the program
// alone: on every workload, the traced run moves the same ops and bytes
// through every tier and ends with the same parameters.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runCounts(t, w, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runCounts(t, w, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if plain != traced {
				t.Errorf("untraced:\n%s\ntraced:\n%s", plain, traced)
			}
		})
	}
}
