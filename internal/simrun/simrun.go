// Package simrun executes the offloading pipelines of both runtimes —
// DeepSpeed ZeRO-3 and MLP-Offload — on the discrete-event simulator at
// paper scale (40B-280B parameters, terabytes of optimizer state), using
// the same policy packages as the real engine: hostcache ordering/LRU,
// placement (Eq. 1), and per-tier exclusive concurrency control.
//
// There is one pipeline (Run, engine_model.go): every tier operation goes
// through a per-(tier, GPU worker) scheduler. The paper's approaches
// (Approach's first six fields) run through it with a single FIFO class;
// the engine features beyond the paper (priority classes, live migration,
// coalescing, codecs, checkpoint storms, tier failure) are switches on
// the same model.
//
// The hardware model comes from cluster.Testbed (Table 1): per-direction
// NVMe and PFS links with contention-efficiency curves, a processor-sharing
// CPU update resource, per-GPU D2H bandwidth, and the two calibration
// anchors the paper quotes (GPU forward time, CPU update rate). Everything
// the experiments report — phase breakdowns, update throughput, effective
// I/O, tier distribution, cache hits — is measured from simulated
// transfers, not computed analytically.
package simrun

import (
	"fmt"
	"math"

	"github.com/datastates/mlpoffload/internal/cluster"
	"github.com/datastates/mlpoffload/internal/hostcache"
	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/model"
)

// Approach is a named bundle of the toggleable design principles.
type Approach struct {
	Name          string
	Order         hostcache.Order
	SkipGradFlush bool // delayed in-place FP16→FP32 conversion
	ExclusiveIO   bool // node-level per-tier exclusive access
	UsePFS        bool // multi-path virtual tier (NVMe + PFS)
	// AdaptivePlacement re-plans the subgroup→tier split at every
	// iteration boundary from EWMA-smoothed observed bandwidths (§3.3's
	// B_i adjustment); otherwise the microbenchmark split is kept.
	AdaptivePlacement bool

	// The fields below model the engine beyond the paper; all zero is the
	// paper's runtime.

	// PriorityIO routes every tier operation through a class-based
	// multi-level queue (DemandFetch > GradRead > Prefetch > Flush >
	// Checkpoint > Migration) with aio's default aging, mirroring
	// internal/aio. When false, ops run through a single-class FIFO: the
	// paper's runtimes, and the contrast the checkpoint-storm scenario
	// measures.
	PriorityIO bool
	// LiveMigration moves misplaced offloaded subgroups toward the plan in
	// the background after each replan, up to two copies per worker (the
	// engine's default migration window), instead of waiting for natural
	// eviction traffic to converge.
	LiveMigration bool
	// CoalesceFetches batches up to this many adjacent same-tier fetches
	// into one vectored scheduler op, paying the per-op overhead once. <2
	// disables.
	CoalesceFetches int
	// CodecRatio > 1 models a compression codec on every tier: devices
	// move bytes/CodecRatio wire bytes while the CPU pays raw/CodecEncBW
	// (writes) and raw/CodecDecBW (reads) seconds. CodecEncBW/CodecDecBW
	// of 0 mean free transforms.
	CodecRatio float64
	CodecEncBW float64
	CodecDecBW float64
}

// EngineTrue returns the approach matching the engine as PRs 1-8 left it:
// all paper principles plus priority scheduling, live migration, and fetch
// coalescing.
func EngineTrue() Approach {
	a := MLPOffload()
	a.Name = "MLP-Offload (engine)"
	a.PriorityIO = true
	a.LiveMigration = true
	a.CoalesceFetches = 4
	return a
}

// DeepSpeedZeRO3 is the baseline: sequential order, FP32 gradient flushes,
// shared uncoordinated NVMe access, no PFS.
func DeepSpeedZeRO3() Approach {
	return Approach{Name: "DeepSpeed ZeRO-3"}
}

// MLPOffload enables all design principles.
func MLPOffload() Approach {
	return Approach{
		Name:              "MLP-Offload",
		Order:             hostcache.Alternating,
		SkipGradFlush:     true,
		ExclusiveIO:       true,
		UsePFS:            true,
		AdaptivePlacement: true,
	}
}

// AblationLadderNVMe returns the Figure 14 ladder: optimizations enabled
// progressively, all NVMe-only.
func AblationLadderNVMe() []Approach {
	return []Approach{
		DeepSpeedZeRO3(),
		{Name: "Enable Caching", Order: hostcache.Alternating},
		{Name: "Skip Gradients", Order: hostcache.Alternating, SkipGradFlush: true},
		{Name: "Process Atomic R/W", Order: hostcache.Alternating, SkipGradFlush: true, ExclusiveIO: true},
	}
}

// AblationLadderMultiPath returns the Figure 15 ladder: NVMe+PFS with
// optimizations enabled progressively.
func AblationLadderMultiPath() []Approach {
	return []Approach{
		{Name: "Multi-Path (with caching)", Order: hostcache.Alternating, UsePFS: true},
		{Name: "MP Skip Grads", Order: hostcache.Alternating, SkipGradFlush: true, UsePFS: true},
		{Name: "Our Approach", Order: hostcache.Alternating, SkipGradFlush: true, ExclusiveIO: true, UsePFS: true},
	}
}

// Config describes one simulated run.
type Config struct {
	Testbed  cluster.Testbed
	Model    model.Config
	Nodes    int
	Approach Approach
	// SubgroupParams is the subgroup size (paper methodology: 100e6).
	SubgroupParams int64
	// MicroBatch is samples per GPU per forward/backward (paper default 1;
	// the gradient-accumulation study uses 8).
	MicroBatch int
	// GradAccumSteps is forward/backward passes per update phase.
	GradAccumSteps int
	// Iterations and Warmup control measurement (paper: 10 and 2).
	Iterations int
	Warmup     int
	// CPUOnly marks the 20B baseline whose optimizer state fits in host
	// memory: updates run from host with no third-level I/O.
	CPUOnly bool
	// TraceSubgroups records the per-subgroup I/O throughput worker 0
	// perceives for its update-phase fetches and flushes during the first
	// measured iteration (index Warmup) into Result.Trace (Figure 5).
	TraceSubgroups bool
	// PFSLoadFactor, when in (0,1), scales the PFS bandwidth down from
	// iteration PFSLoadAfter onward — external batch jobs pressuring the
	// shared file system (the fluctuation scenario of §3.3 and the
	// paper's future-work discussion).
	PFSLoadFactor float64
	PFSLoadAfter  int

	// The fields below configure engine features and scenarios beyond the
	// paper; all zero is the paper's setup.

	// CheckpointJobs spawns that many co-tenant checkpoint streams, each
	// keeping one Checkpoint-class write in flight to the persistent tier
	// for the whole run — the "checkpoint storm from hundreds of
	// concurrent jobs" scenario.
	CheckpointJobs int
	// CheckpointBytes is the storm object size (0 = one subgroup's state).
	CheckpointBytes float64
	// CheckpointInterval is each storm job's think time in seconds between
	// writes (staggered starts). 0 = closed-loop: resubmit immediately,
	// saturating the tier.
	CheckpointInterval float64
	// TierFailFactor in (0,1) collapses tier TierFailTier's bandwidth to
	// that fraction at the start of iteration TierFailAfter — a device
	// failing mid-run. With AdaptivePlacement + LiveMigration the replan
	// triggers a migration storm toward the surviving paths.
	TierFailFactor float64
	TierFailTier   int
	TierFailAfter  int
	// OpOverhead is a fixed per-scheduler-op setup cost in seconds
	// (calibrated from BENCH seq-fetch data); this is the cost coalescing
	// amortizes.
	OpOverhead float64
	// FullDuplex models each tier as independent read and write links at
	// their nominal bandwidths (the semantics of storage.Throttled's two
	// token buckets) instead of the paper's half-duplex shared device.
	// Used when cross-validating against the real engine.
	FullDuplex bool
	// CacheSlots / PrefetchDepth / IOWorkers override the derived values
	// when > 0 (IOWorkers is scheduler workers per tier per GPU worker,
	// default 2 — the aio engine default).
	CacheSlots    int
	PrefetchDepth int
	IOWorkers     int
	// TraceEvents records a deterministic per-op completion trace into
	// Result.EventTrace.
	TraceEvents bool
}

// normalize fills defaults and validates.
func (c *Config) normalize() error {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.SubgroupParams <= 0 {
		c.SubgroupParams = 100e6
	}
	if c.MicroBatch <= 0 {
		c.MicroBatch = 1
	}
	if c.GradAccumSteps <= 0 {
		c.GradAccumSteps = 1
	}
	if c.Iterations <= 0 {
		c.Iterations = 10
	}
	if c.Warmup < 0 || c.Warmup >= c.Iterations {
		c.Warmup = min(2, c.Iterations-1)
	}
	if c.Testbed.GPUsPerNode <= 0 {
		return fmt.Errorf("simrun: testbed has no GPUs")
	}
	if c.Model.Params() <= 0 {
		return fmt.Errorf("simrun: model has no parameters")
	}
	return nil
}

// SubgroupIO is one Figure 5 trace point: the I/O throughput worker 0
// observed for one subgroup's fetch and flush.
type SubgroupIO struct {
	Pos     int     // position in the update order
	ReadBW  float64 // bytes/second (0 for cache hits)
	WriteBW float64 // bytes/second (0 when not flushed)
}

// ClassStat aggregates one priority class's traffic over the whole run
// ("fifo" is the single class when PriorityIO is off).
type ClassStat struct {
	Ops        int64
	Bytes      float64
	WireBytes  float64
	QueueDelay float64 // total seconds queued before service
	Service    float64 // total seconds of service
	P50        float64 // completion-latency percentiles, seconds
	P95        float64
}

// Result is the outcome of a simulated run.
type Result struct {
	Config Config
	Series metrics.Series
	Mean   metrics.Iteration
	Trace  []SubgroupIO
	// PlanRatio describes the subgroup placement, e.g. "nvme:pfs = 67:33".
	PlanRatio string
	// CacheSlotsPerWorker is the host-cache capacity used.
	CacheSlotsPerWorker int

	// Scheduler, migration and storm accounting.
	Classes       map[string]ClassStat
	Migrations    int64   // background copies completed
	MigratedBytes float64 //
	MisplacedEnd  int     // offloaded subgroups off-plan at end of run
	FetchP50      float64 // perceived update-fetch latency percentiles, s
	FetchP95      float64
	CheckpointOps int64   // storm writes completed
	CheckpointP95 float64 // storm write completion-latency p95, seconds
	EventTrace    []string
}

// IterTime returns the mean iteration duration in seconds.
func (r Result) IterTime() float64 { return r.Mean.Phases.Total() }

// DiskIOFraction estimates the fraction of the update phase spent waiting
// on storage I/O rather than compute: 1 - compute/(update wall time), per
// worker averaged — the Figure 3 metric.
func DiskIOFraction(m metrics.Iteration, workersPerNode int) float64 {
	if m.Phases.Update <= 0 {
		return 0
	}
	perWorkerCompute := m.UpdateComputeTime / float64(workersPerNode)
	f := 1 - perWorkerCompute/m.Phases.Update
	return math.Max(0, math.Min(1, f))
}
