package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/datastates/mlpoffload"
)

// workload is one engine configuration the benchmark drives. Together
// the four cover both sides of each path the engine picks for itself:
// serial vs pooled kernels, coalesced vs single fetches, codec on vs off,
// and MemTier vs FileTier.
type workload struct {
	name           string
	params         int64 // shard size in parameters
	subgroupParams int64
	baseline       bool // BaselineConfig (ZeRO-3) on nvme alone; else MLPConfig on nvme+pfs
	files          bool // training tiers are FileTiers in a scratch directory; else MemTiers
	throttled      bool // throttle nvme and pfs to ioRates
	codec          bool // flate+crc on every tier; pfs is Persistent
	ckptEvery      int  // checkpoint inside the window every ckptEvery iterations (0: never)
}

var workloads = []workload{
	// The paper's regime: update-phase storage I/O dominates, Adam is a
	// small share of the update. Exercises the throttle, the aio priority
	// queues, adaptive placement with live migration, and the host cache's
	// alternating order (32 subgroups against 3 cache slots).
	//
	// BENCHMARK.json leaves it out: it is not steady. With the default
	// bursts (a quarter second of tokens, larger than a 3 MB subgroup) a
	// transfer either finds tokens and completes at memory speed or waits
	// at the throttled rate, so the per-transfer bandwidth estimates swing
	// and the adaptive plan flips between nvme:pfs 16:16, 32:0 and 20:12.
	// Runs settle into different cycles of plans: in four of five 15 s
	// runs iterations alternated between about 0.97 s and 0.68 s, in the
	// fifth a three-plan cycle took iterations up to 2.1 s. The spread
	// (IQR over median, five seeds) was 0.22 for iter_s_p50 and 0.23 for
	// update_s_p50, too close to the largest bound the benchmark may set.
	// Run it by name to see the placement trajectory and the zero3-io
	// speedup report.
	{name: "mlp-io", params: 8_000_000, subgroupParams: 250_000, throttled: true},
	// The paper's comparator and the plain single-worker run: one update
	// and one kernel worker, no fetch coalescing, sequential order, and
	// the only workload with the backward-pass FP32 gradient flush. Its
	// final parameters equal mlp-io's bit for bit.
	{name: "zero3-io", params: 8_000_000, subgroupParams: 250_000, baseline: true, throttled: true},
	// CPU-bound update over unthrottled FileTiers served from the page
	// cache (FileTier publishes by rename and never fsyncs): the optim,
	// fp16 and kernel-pool paths, subgroup copies, preadv/pwritev and the
	// fd cache carry the time; throttle and placement do almost nothing.
	{name: "mlp-cpu", params: 16_000_000, subgroupParams: 500_000, files: true},
	// Checkpoint streams beside demand fetches, through the flate+crc
	// codec on every tier: the only workload that drives the codec and
	// checkpoints inside the measured window. A quarter of mlp-io's shard
	// (still 32 subgroups) so that a run holds about 40 iterations and 13
	// checkpoints: the codec is CPU-bound, and with live migration beside
	// it single iterations vary by 2x on a shared 2-CPU machine, so
	// medians need the samples.
	{name: "mlp-ckpt-codec", params: 2_000_000, subgroupParams: 62_500, files: true, codec: true, ckptEvery: 3},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

type rates struct{ read, write float64 }

// nominalRates are cmd/mlptrain's Table-1 ratios scaled to laptop speeds;
// ioRates, a fifth of them, are where the update phase turns I/O-bound
// on a 2-CPU machine (at the full rates Adam hides most of the I/O).
var (
	nominalRates = map[string]rates{"nvme": {690e6, 530e6}, "pfs": {360e6, 360e6}}
	ioRates      = map[string]rates{"nvme": {138e6, 106e6}, "pfs": {72e6, 72e6}}
)

func (w workload) tierNames() []string {
	if w.baseline {
		return []string{"nvme"}
	}
	return []string{"nvme", "pfs"}
}

// stack is one set of tiers: the engine's and the checkpoint tier, which
// is always a FileTier.
type stack struct {
	specs   []mlpoffload.TierSpec
	ckpt    mlpoffload.Tier
	dir     string // FileTier root, removed by close
	closers []io.Closer
}

func (s *stack) close() {
	for _, c := range s.closers {
		c.Close()
	}
	os.RemoveAll(s.dir)
}

// buildStack makes a fresh set of tiers. With tracing on, a timing
// decorator sits directly above each MemTier or FileTier ("storage.<t>"),
// above each throttle ("ratelimit.<t>") and above each codec
// ("tiercodec.<t>"); the engine gets the codec-wrapped tier directly
// rather than through TierSpec.Codec so that the decorator can sit above
// it.
func (w workload) buildStack(dir string, tr *tracer) (*stack, error) {
	s := &stack{dir: dir}
	codec, err := mlpoffload.ParseCodecSpec("flate+crc")
	if err != nil {
		return nil, err
	}
	layer := func(name string) (mlpoffload.Tier, error) {
		var t mlpoffload.Tier
		if w.files || name == "ckpt" {
			ft, err := mlpoffload.NewFileTier(name, filepath.Join(dir, name))
			if err != nil {
				return nil, err
			}
			if c, ok := ft.(io.Closer); ok {
				s.closers = append(s.closers, c)
			}
			t = ft
		} else {
			t = mlpoffload.NewMemTier(name)
		}
		t, err := tr.wrap(t, "storage."+name)
		if err != nil {
			return nil, err
		}
		if r, ok := ioRates[name]; ok && w.throttled {
			t = mlpoffload.NewThrottledTier(t, mlpoffload.ThrottleSpec{ReadBW: r.read, WriteBW: r.write})
			if t, err = tr.wrap(t, "ratelimit."+name); err != nil {
				return nil, err
			}
		}
		if w.codec {
			ct, err := mlpoffload.NewCodecTier(t, codec)
			if err != nil {
				return nil, err
			}
			if t, err = tr.wrap(ct, "tiercodec."+name); err != nil {
				return nil, err
			}
		}
		return t, nil
	}
	for _, name := range w.tierNames() {
		t, err := layer(name)
		if err != nil {
			s.close()
			return nil, err
		}
		r := nominalRates[name]
		if w.throttled {
			r = ioRates[name]
		}
		s.specs = append(s.specs, mlpoffload.TierSpec{
			Tier: t, ReadBW: r.read, WriteBW: r.write,
			Persistent: w.codec && name == "pfs",
		})
	}
	if s.ckpt, err = layer("ckpt"); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// config is the engine configuration of the measured run.
func (w workload) config(specs []mlpoffload.TierSpec, in *inputs, grad mlpoffload.BatchGradFn) mlpoffload.EngineConfig {
	var cfg mlpoffload.EngineConfig
	if w.baseline {
		cfg = mlpoffload.BaselineConfig(0, w.params, w.subgroupParams, specs)
	} else {
		cfg = mlpoffload.MLPConfig(0, w.params, w.subgroupParams, specs, mlpoffload.NewNodeLocks(true))
	}
	cfg.InitParams = in.initParam
	cfg.BatchGrad = grad
	return cfg
}

// referenceConfig is the correctness reference: MLPConfig with the same
// shard, seed and inputs on unthrottled in-memory tiers without codec,
// with a serial update and serial kernels. Every workload, zero3-io
// included, must end bit-identical to it after as many iterations, so
// ZeRO-3 and MLP-Offload are checked against each other too.
func (w workload) referenceConfig(in *inputs) mlpoffload.EngineConfig {
	var specs []mlpoffload.TierSpec
	for _, name := range []string{"nvme", "pfs"} {
		r := nominalRates[name]
		specs = append(specs, mlpoffload.TierSpec{Tier: mlpoffload.NewMemTier(name), ReadBW: r.read, WriteBW: r.write})
	}
	ref := w
	ref.baseline = false
	cfg := ref.config(specs, in, in.grad)
	cfg.UpdateWorkers = -1
	cfg.KernelWorkers = -1
	return cfg
}
