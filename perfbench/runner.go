package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"github.com/datastates/mlpoffload"
)

const (
	// setupReps engines are built per run so that setup_s is a median;
	// likewise restoreReps restores, and finalCkpts checkpoints where none
	// falls inside the window.
	setupReps   = 5
	restoreReps = 5
	finalCkpts  = 5
	// warmupIters run before the window: the first update phases fill
	// the host cache and settle the placement estimator.
	warmupIters = 2
	ckptPrefix  = "bench"
)

// runner executes one workload and keeps what it measured.
type runner struct {
	w    workload
	tr   *tracer
	seed uint64
	dir  string
	in   *inputs

	attempted, failed int // engine calls and correctness checks

	setup    []float64 // NewEngine wall seconds
	iters    int       // TrainIteration calls, warmup included
	walls    []float64 // measured TrainIteration wall seconds
	its      []mlpoffload.Iteration
	window   float64   // measured window, checkpoint calls included
	stalls   []float64 // Checkpoint wall seconds inside the window, else the final ones'
	savings  []float64 // Manifest.Savings per checkpoint
	restores []float64
	rssMiB   float64
	digests  map[string]string // live, restored, reference

	// Traced run only.
	measured  map[int64]bool // engine-call span IDs inside the window
	ckptCalls map[int64]bool
	locks     *mlpoffload.NodeLocks
	traj      []planPoint
	startCtr  counters
	endCtr    counters
	tierStats map[string]any
}

// planPoint is the placement state after one measured iteration.
type planPoint struct {
	Iter      int    `json:"iter"`
	Ratio     string `json:"ratio"`
	Moves     int64  `json:"migration_moves"`
	Bytes     int64  `json:"migration_bytes"`
	Abandoned int64  `json:"migration_abandoned"`
	Misplaced int    `json:"misplaced"`
}

// counters are the engine's cumulative counters at one instant.
type counters struct {
	planPoint
	retries   int64
	lockWait  map[string]float64
	lockGrant map[string]int64
}

// call runs one engine call, counting it, as a span when tracing.
func (r *runner) call(name string, fn func() error) (int64, error) {
	r.attempted++
	id, err := r.tr.engineCall(name, fn)
	if err != nil {
		r.failed++
		return id, fmt.Errorf("%s: %w", name, err)
	}
	return id, nil
}

// check counts one correctness check.
func (r *runner) check(ok bool, format string, args ...any) error {
	r.attempted++
	if ok {
		return nil
	}
	r.failed++
	return fmt.Errorf(format, args...)
}

func (r *runner) run(seconds float64) error {
	ctx := context.Background()
	r.in = newInputs(r.seed, r.w.params)
	r.digests = map[string]string{}
	r.measured = map[int64]bool{}
	r.ckptCalls = map[int64]bool{}
	grad := r.tr.grad(r.in.grad)

	var (
		eng *mlpoffload.Engine
		st  *stack
		cfg mlpoffload.EngineConfig
	)
	for k := 0; k < setupReps; k++ {
		if eng != nil {
			eng.Close()
			st.close()
			freeMemory()
		}
		var err error
		st, err = r.w.buildStack(filepath.Join(r.dir, fmt.Sprintf("tiers-%d-%d", os.Getpid(), k)), r.tr)
		if err != nil {
			return err
		}
		cfg = r.w.config(st.specs, r.in, grad)
		r.locks = cfg.Locks
		t0 := time.Now()
		_, err = r.call("new", func() (err error) { eng, err = mlpoffload.NewEngine(cfg); return })
		r.setup = append(r.setup, time.Since(t0).Seconds())
		if err != nil {
			st.close()
			return err
		}
	}
	defer st.close()
	defer func() { eng.Close() }() // eng is replaced by the restored engine

	// Checkpoints inside the window go under ckptPrefix; the final ones
	// each under a prefix of their own, so that they may share a step.
	writers := map[string]*mlpoffload.CheckpointWriter{}
	defer func() {
		for _, w := range writers {
			w.Close()
		}
	}()
	lastCkpt, lastPrefix := -1, ""
	checkpoint := func(prefix string) (int64, error) {
		w := writers[prefix]
		if w == nil {
			w = mlpoffload.NewCheckpointWriter(st.ckpt, prefix)
			writers[prefix] = w
		}
		var m mlpoffload.CheckpointManifest
		t0 := time.Now()
		id, err := r.call("checkpoint", func() (err error) { m, err = eng.Checkpoint(ctx, r.iters, w); return })
		r.stalls = append(r.stalls, time.Since(t0).Seconds())
		r.savings = append(r.savings, m.Savings())
		r.ckptCalls[id] = true
		lastCkpt, lastPrefix = r.iters, prefix
		return id, err
	}
	train := func() (mlpoffload.Iteration, float64, int64, error) {
		var it mlpoffload.Iteration
		t0 := time.Now()
		id, err := r.call("train", func() (err error) { it, err = eng.TrainIteration(r.iters); return })
		r.iters++
		return it, time.Since(t0).Seconds(), id, err
	}

	for k := 0; k < warmupIters; k++ {
		if _, _, _, err := train(); err != nil {
			return err
		}
	}
	r.startCtr = r.counters(eng)
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		it, wall, id, err := train()
		if err != nil {
			return err
		}
		r.walls = append(r.walls, wall)
		r.its = append(r.its, it)
		r.measured[id] = true
		if r.tr != nil {
			r.traj = append(r.traj, r.planPoint(eng))
		}
		if r.w.ckptEvery > 0 && r.iters%r.w.ckptEvery == 0 {
			id, err := checkpoint(ckptPrefix)
			if err != nil {
				return err
			}
			r.measured[id] = true
		}
	}
	r.window = time.Since(start).Seconds()
	r.endCtr = r.counters(eng)

	// Outside the window: final checkpoints, restores into fresh engines
	// over the same tiers, and the reference replay. Gathering first
	// drains the engine, so a final checkpoint's stall does not depend on
	// which flushes and migrations the window left in flight.
	params := make([]float32, r.w.params)
	if err := r.gather("live", eng, params); err != nil {
		return err
	}
	if lastCkpt != r.iters {
		inWindow := len(r.stalls)
		for k := 0; k < finalCkpts; k++ {
			if _, err := checkpoint(fmt.Sprintf("%s-final%d", ckptPrefix, k)); err != nil {
				return err
			}
		}
		if inWindow > 0 {
			r.stalls = r.stalls[:inWindow]
		}
	}
	r.tierStats = tierStats(st)
	reader := mlpoffload.NewCheckpointReader(st.ckpt, lastPrefix)
	step, err := reader.LatestStep(ctx)
	if err != nil {
		return err
	}
	m, err := reader.ReadManifest(ctx, step)
	if err != nil {
		return err
	}
	for k := 0; k < restoreReps; k++ {
		eng.Close()
		freeMemory()
		if _, err := r.call("new", func() (err error) { eng, err = mlpoffload.NewEngine(cfg); return }); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := r.call("restore", func() error { return eng.Restore(ctx, reader, m) }); err != nil {
			return err
		}
		r.restores = append(r.restores, time.Since(t0).Seconds())
	}
	if err := r.gather("restored", eng, params); err != nil {
		return err
	}
	if r.rssMiB, err = peakRSSMiB(); err != nil {
		return err
	}
	eng.Close()
	if err := r.check(r.digests["restored"] == r.digests["live"],
		"restored parameters %s differ from live %s at step %d", r.digests["restored"], r.digests["live"], step); err != nil {
		return err
	}

	ref, err := mlpoffload.NewEngine(r.w.referenceConfig(r.in))
	if err := r.check(err == nil, "reference engine: %v", err); err != nil {
		return err
	}
	defer ref.Close()
	for i := 0; i < r.iters; i++ {
		if _, err := ref.TrainIteration(i); err != nil {
			return r.check(false, "reference iteration %d: %v", i, err)
		}
	}
	if err := r.gather("reference", ref, params); err != nil {
		return err
	}
	return r.check(r.digests["reference"] == r.digests["live"],
		"parameters %s after %d iterations differ from the reference's %s", r.digests["live"], r.iters, r.digests["reference"])
}

// gather records the digest of eng's FP32 master parameters.
func (r *runner) gather(label string, eng *mlpoffload.Engine, buf []float32) error {
	if _, err := r.call("gather", func() error { return eng.GatherParams(buf) }); err != nil {
		return err
	}
	h := sha256.New()
	chunk := make([]byte, 0, 1<<16)
	for _, p := range buf {
		chunk = binary.LittleEndian.AppendUint32(chunk, math.Float32bits(p))
		if len(chunk) == cap(chunk) {
			h.Write(chunk)
			chunk = chunk[:0]
		}
	}
	h.Write(chunk)
	r.digests[label] = hex.EncodeToString(h.Sum(nil)[:8])
	return nil
}

func (r *runner) counters(eng *mlpoffload.Engine) counters {
	if r.tr == nil {
		return counters{}
	}
	c := counters{
		planPoint: r.planPoint(eng),
		retries:   eng.IntegrityRetries(),
		lockWait:  map[string]float64{},
		lockGrant: map[string]int64{},
	}
	if locks := r.locks; locks != nil {
		for _, name := range r.w.tierNames() {
			ls := locks.Stats(name)
			c.lockWait[name] = ls.WaitTotal.Seconds()
			c.lockGrant[name] = ls.Grants
		}
	}
	return c
}

func (r *runner) planPoint(eng *mlpoffload.Engine) planPoint {
	ms := eng.MigrationStats()
	return planPoint{
		Iter: r.iters - 1, Ratio: eng.Plan().Ratio(),
		Moves: ms.Moves, Bytes: ms.Bytes, Abandoned: ms.Abandoned,
		Misplaced: eng.MisplacedSubgroups(),
	}
}

// tierStats are the cumulative Tier.Stats of the stack's tiers, as the
// engine's handles report them.
func tierStats(st *stack) map[string]any {
	out := map[string]any{}
	for _, s := range st.specs {
		out[s.Tier.Name()] = s.Tier.Stats()
	}
	out["ckpt"] = st.ckpt.Stats()
	return out
}

// freeMemory returns a closed engine's buffers to the OS, so that
// peak_rss_mb reflects one live engine rather than when the collector ran.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
