// Package simrun executes the offloading pipelines of both runtimes —
// DeepSpeed ZeRO-3 and MLP-Offload — on the discrete-event simulator at
// paper scale (40B-280B parameters, terabytes of optimizer state), using
// the same policy packages as the real engine: hostcache ordering/LRU,
// placement (Eq. 1), and per-tier exclusive concurrency control.
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
	"github.com/datastates/mlpoffload/internal/des"
	"github.com/datastates/mlpoffload/internal/hostcache"
	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/model"
	"github.com/datastates/mlpoffload/internal/placement"
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

	// The fields below model the post-paper engine (PRs 3/4/8). Any of
	// them being set routes the run through the scheduler-based pipeline
	// (engine_model.go); all zero keeps the original paper pipeline
	// bit-for-bit.

	// PriorityIO routes every tier operation through a class-based
	// multi-level queue (DemandFetch > GradRead > Prefetch > Flush >
	// Checkpoint > Migration) with aging, mirroring internal/aio. When
	// false but another scheduler feature is on, ops run through a
	// single-class FIFO — the contrast the checkpoint-storm scenario
	// measures.
	PriorityIO bool
	// AgingThreshold is the starvation bound in seconds; 0 means the aio
	// default (50ms) when PriorityIO is on.
	AgingThreshold float64
	// LiveMigration moves misplaced offloaded subgroups toward the plan in
	// the background after each replan (PR 3), instead of waiting for
	// natural eviction traffic to converge.
	LiveMigration bool
	// MigrationWindow bounds concurrent background copies per worker
	// (0 = 2, the engine default).
	MigrationWindow int
	// CoalesceFetches batches up to this many adjacent same-tier fetches
	// into one vectored scheduler op (PR 8), paying the per-op overhead
	// once. <2 disables.
	CoalesceFetches int
	// CodecRatio > 1 models a compression codec on every tier (PR 4):
	// devices move bytes/CodecRatio wire bytes while the CPU pays
	// raw/CodecEncBW (writes) and raw/CodecDecBW (reads) seconds.
	// CodecEncBW/CodecDecBW of 0 mean free transforms.
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
	// TraceIteration, when >= 0, records per-subgroup I/O throughput for
	// worker 0 during that iteration (Figure 5).
	TraceIteration int
	// PFSLoadFactor, when in (0,1), scales the PFS bandwidth down from
	// iteration PFSLoadAfter onward — external batch jobs pressuring the
	// shared file system (the fluctuation scenario of §3.3 and the
	// paper's future-work discussion).
	PFSLoadFactor float64
	PFSLoadAfter  int

	// The fields below configure the scheduler-based pipeline
	// (engine_model.go); any non-zero value routes the run through it.

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
	// Result.EventTrace (scheduler pipeline only).
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
// (scheduler pipeline only).
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

	// Scheduler-pipeline extras (zero on the paper pipeline).
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

// tierRes models one storage device as a half-duplex resource: reads and
// writes share the device, so one byte read costs 1/ReadBW device-seconds
// and one byte written costs 1/WriteBW. The underlying link has unit
// capacity (one device-second per second); concurrent uncoordinated
// clients additionally pay the interference curve, while exclusive access
// (the MLP-Offload concurrency control) serializes via the mutex and sees
// the full device.
type tierRes struct {
	name string
	dev  *des.Link  // unit-capacity device-time link
	mu   *des.Mutex // nil when access is uncoordinated
	spec cluster.StorageTierSpec
}

// readOp performs one fetch. total is the duration the runtime perceives
// (queueing for exclusive access included, matching how the paper measures
// per-subgroup I/O time); xfer is the device transfer time alone, which is
// what the bandwidth estimator must observe — feeding queue delay back
// into placement would destabilize it.
func (t *tierRes) readOp(p *des.Proc, bytes float64) (total, xfer float64) {
	t0 := p.Now()
	if t.mu != nil {
		t.mu.Lock(p)
		defer t.mu.Unlock(p)
	}
	t1 := p.Now()
	t.dev.Transfer(p, bytes/t.spec.ReadBW)
	return p.Now() - t0, p.Now() - t1
}

// writeOp performs one flush; see readOp for timing semantics.
func (t *tierRes) writeOp(p *des.Proc, bytes float64) (total, xfer float64) {
	t0 := p.Now()
	if t.mu != nil {
		t.mu.Lock(p)
		defer t.mu.Unlock(p)
	}
	t1 := p.Now()
	t.dev.Transfer(p, bytes/t.spec.WriteBW)
	return p.Now() - t0, p.Now() - t1
}

// usesSched reports whether the run needs the scheduler-based pipeline
// (any post-paper engine feature requested). Everything else takes the
// original paper pipeline, bit-for-bit.
func (c Config) usesSched() bool {
	ap := c.Approach
	return ap.PriorityIO || ap.LiveMigration || ap.CoalesceFetches >= 2 ||
		ap.CodecRatio > 1 || c.CheckpointJobs > 0 || c.OpOverhead > 0 ||
		c.FullDuplex || (c.TierFailFactor > 0 && c.TierFailFactor < 1)
}

// Run simulates one node of the configured system (nodes are symmetric;
// inter-node collective cost is added to the backward pass) and returns
// the measured result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.usesSched() {
		return runSched(cfg)
	}
	tb := cfg.Testbed
	ap := cfg.Approach
	W := tb.GPUsPerNode
	totalParams := cfg.Model.Params()
	shardParams := totalParams / int64(W*cfg.Nodes)
	if shardParams <= 0 {
		return nil, fmt.Errorf("simrun: model too small for %d workers", W*cfg.Nodes)
	}
	M := int((shardParams + cfg.SubgroupParams - 1) / cfg.SubgroupParams)

	sim := des.New()

	// Storage resources.
	var tiers []*tierRes
	mkTier := func(spec cluster.StorageTierSpec) *tierRes {
		// Interference counts competing processes (one per GPU), not raw
		// in-flight ops: deeper queues from one worker do not add device
		// interference, they just wait their turn.
		curve := des.CappedInterference(spec.InterferenceAlpha, W)
		t := &tierRes{
			name: spec.Name,
			dev:  sim.NewLink(spec.Name, 1.0, curve), // unit device-time capacity
			spec: spec,
		}
		if ap.ExclusiveIO {
			t.mu = sim.NewMutex()
		}
		return t
	}
	if !cfg.CPUOnly {
		tiers = append(tiers, mkTier(tb.NVMe))
		if ap.UsePFS {
			tiers = append(tiers, mkTier(tb.PFS))
		}
	}

	// CPU update resource: processor-sharing across workers, measured in
	// parameters/second.
	cpu := sim.NewLink("cpu", tb.CPUUpdateParamsPerSec, nil)

	// Placement plan (per worker; identical for all workers), seeded from
	// the microbenchmark bandwidths and — with adaptive placement — re-fit
	// each iteration from EWMA-smoothed observed bandwidths.
	var plan placement.Plan
	est := placement.NewEstimator(0.5)
	tierNames := make([]string, len(tiers))
	if len(tiers) > 0 {
		tbw := make([]placement.TierBandwidth, len(tiers))
		for i, t := range tiers {
			tbw[i] = placement.TierBandwidth{Name: t.name, BW: t.spec.MinBW()}
			est.Seed(t.name, t.spec.ReadBW, t.spec.WriteBW)
			tierNames[i] = t.name
		}
		plan = placement.NewPlan(M, tbw)
	}

	// Host cache capacity.
	stateBytesPerSG := float64(cfg.SubgroupParams) * 12
	var slots int
	if ap.Order == hostcache.Alternating {
		cache := tb.HostCacheBytes(totalParams/int64(cfg.Nodes), ap.SkipGradFlush)
		slots = int(float64(cache) / float64(W) / stateBytesPerSG)
		if slots < 3 {
			slots = 3
		}
		if slots > M {
			slots = M
		}
	} else {
		// DeepNVMe's rotating buffers: one prefetched, one updating, one
		// flushing.
		slots = 3
	}
	prefetchDepth := min(4, slots)
	if ap.Order != hostcache.Alternating {
		prefetchDepth = 1
	}

	// Compute-time model.
	tokensPerStep := float64(cfg.Model.SeqLen * cfg.MicroBatch)
	fwdTime := cfg.Model.FLOPsPerToken() * tokensPerStep / (tb.GPU.TFLOPS * 1e12)
	bwdComputeTime := 3 * fwdTime // 2x backward + 1x activation recompute
	// Inter-node collectives (tensor parallel intra-node, data parallel
	// across nodes): FP16 gradient reduce-scatter + parameter all-gather,
	// sharded 1/W by tensor parallelism.
	commTime := cluster.CollectiveTime(2*2*float64(totalParams)/float64(W), cfg.Nodes, tb.InterconnectBW)

	fetchBytesPerParam := 12.0
	if !ap.SkipGradFlush {
		fetchBytesPerParam = 16.0
	}

	// Per-worker state.
	workers := make([]*workerState, W)
	sgParams := make([]int64, M)
	for i := range sgParams {
		n := cfg.SubgroupParams
		if rem := shardParams - int64(i)*cfg.SubgroupParams; rem < n {
			n = rem
		}
		sgParams[i] = n
	}
	for w := range workers {
		ws := &workerState{lru: hostcache.NewLRU(slots), loc: make([]int, M)}
		for i := range ws.loc {
			if cfg.CPUOnly {
				ws.loc[i] = -1
			} else {
				ws.loc[i] = plan.TierFor(i)
			}
		}
		workers[w] = ws
	}

	// Measurement state (DES is single-threaded: plain fields suffice).
	iters := make([]metrics.Iteration, cfg.Iterations)
	for i := range iters {
		iters[i].TierBytes = make(map[string]float64)
	}
	var trace []SubgroupIO
	type phaseStamp struct{ fwdEnd, bwdEnd, updEnd, start float64 }
	stamps := make([]phaseStamp, cfg.Iterations)

	barrier := sim.NewBarrier(W)

	const fp16Bytes = 2.0
	d2h := tb.GPU.PinnedBandwidth
	conv := tb.CPUConvertBytesPerSec

	for w := 0; w < W; w++ {
		w := w
		ws := workers[w]
		sim.Spawn(fmt.Sprintf("worker%d", w), func(p *des.Proc) {
			for iter := 0; iter < cfg.Iterations; iter++ {
				it := &iters[iter]
				if w == 0 {
					stamps[iter].start = p.Now()
					// External PFS pressure kicks in at the configured
					// iteration: the shared file system delivers only a
					// fraction of its microbenchmarked bandwidth.
					if cfg.PFSLoadFactor > 0 && cfg.PFSLoadFactor < 1 &&
						iter == cfg.PFSLoadAfter && ap.UsePFS && len(tiers) > 1 {
						tiers[1].spec.ReadBW *= cfg.PFSLoadFactor
						tiers[1].spec.WriteBW *= cfg.PFSLoadFactor
					}
				}

				// ---- Forward ----
				p.Sleep(fwdTime * float64(cfg.GradAccumSteps))
				barrier.Await(p)
				if w == 0 {
					stamps[iter].fwdEnd = p.Now()
				}

				// ---- Backward ----
				// Grad flushes are asynchronous but bounded to one in
				// flight per worker, as DeepNVMe's submission queue is:
				// when the device falls behind, the backward pass stalls
				// waiting for the previous flush — exactly the "large
				// asynchronous FP32 gradient flushes that can delay the
				// backward pass" the paper eliminates.
				var prevGradFlush *des.Event
				for a := 0; a < cfg.GradAccumSteps; a++ {
					last := a == cfg.GradAccumSteps-1
					for i := 0; i < M; i++ {
						n := float64(sgParams[i])
						p.Sleep(bwdComputeTime / float64(M))
						p.Sleep(n * fp16Bytes / d2h) // FP16 grads D2H
						if !ap.SkipGradFlush && last && !cfg.CPUOnly {
							// Upscale to FP32 and flush to the subgroup's
							// tier asynchronously.
							p.Sleep(n * 4 / conv)
							if prevGradFlush != nil {
								prevGradFlush.Wait(p)
							}
							tier := tiers[tierOf(ws.loc[i], plan, i)]
							ev := sim.NewEvent()
							prevGradFlush = ev
							bytes := n * 4
							sim.Spawn(fmt.Sprintf("w%d.gflush%d", w, i), func(fp *des.Proc) {
								d, _ := tier.writeOp(fp, bytes)
								it.BytesWritten += bytes
								it.WriteTime += d
								ev.Fire()
							})
						}
					}
				}
				if prevGradFlush != nil {
					prevGradFlush.Wait(p)
				}
				if cfg.Nodes > 1 {
					p.Sleep(commTime)
				}
				barrier.Await(p)
				if w == 0 {
					stamps[iter].bwdEnd = p.Now()
				}

				// ---- Update (Algorithm 1) ----
				order := hostcache.UpdateOrder(ap.Order, M, ws.phase)
				tracing := w == 0 && iter == cfg.TraceIteration && cfg.TraceIteration >= 0
				fetchEvents := make(map[int]*des.Event, prefetchDepth)
				fetchDur := make(map[int]float64, prefetchDepth)
				var flushEvents []*des.Event
				inflight := 0
				issued := 0
				issue := func() {
					for issued < M && inflight < prefetchDepth {
						sgID := order[issued]
						pos := issued
						issued++
						if cfg.CPUOnly || ws.loc[sgID] == -1 {
							continue
						}
						inflight++
						tier := tiers[ws.loc[sgID]]
						bytes := float64(sgParams[sgID]) * fetchBytesPerParam
						ev := sim.NewEvent()
						fetchEvents[sgID] = ev
						sim.Spawn(fmt.Sprintf("w%d.fetch%d", w, sgID), func(fp *des.Proc) {
							d, xfer := tier.readOp(fp, bytes)
							it.BytesRead += bytes
							it.ReadTime += d
							fetchDur[sgID] = d
							est.ObserveRead(tier.name, bytes, xfer)
							if tracing {
								trace = append(trace, SubgroupIO{Pos: pos, ReadBW: bytes / d})
							}
							ev.Fire()
						})
					}
				}
				issue()
				for _, sgID := range order {
					n := float64(sgParams[sgID])
					if ev, ok := fetchEvents[sgID]; ok {
						ev.Wait(p)
						delete(fetchEvents, sgID)
						inflight--
						it.CacheMisses++
						ws.loc[sgID] = -1
					} else if !cfg.CPUOnly {
						it.CacheHits++
					}
					if ap.SkipGradFlush {
						p.Sleep(n * 4 / conv) // delayed FP16→FP32 conversion
					}
					t0 := p.Now()
					cpu.Transfer(p, n) // Adam kernel (params as units)
					it.UpdateComputeTime += p.Now() - t0
					p.Sleep(n * fp16Bytes / d2h) // FP16 params H2D
					if !cfg.CPUOnly {
						evicted, did := ws.lru.Touch(sgID)
						if did {
							// Lazy flush, bounded to two in flight per
							// worker (the staging-buffer backpressure of a
							// real async engine: one flushing + one queued).
							if len(flushEvents) >= 2 {
								flushEvents[len(flushEvents)-2].Wait(p)
							}
							dst := plan.TierFor(evicted)
							tier := tiers[dst]
							ws.loc[evicted] = dst
							bytes := float64(sgParams[evicted]) * 12
							ev := sim.NewEvent()
							flushEvents = append(flushEvents, ev)
							pos := posOf(order, evicted)
							sim.Spawn(fmt.Sprintf("w%d.flush%d", w, evicted), func(fp *des.Proc) {
								d, xfer := tier.writeOp(fp, bytes)
								it.BytesWritten += bytes
								it.WriteTime += d
								est.ObserveWrite(tier.name, bytes, xfer)
								if tracing {
									trace = append(trace, SubgroupIO{Pos: pos, WriteBW: bytes / d})
								}
								ev.Fire()
							})
						}
					}
					issue()
				}
				for _, ev := range flushEvents {
					ev.Wait(p)
				}
				ws.phase++
				it.ParamsUpdated += shardParams
				barrier.Await(p)
				if w == 0 {
					stamps[iter].updEnd = p.Now()
					// Re-fit the placement (Eq. 1) from observed
					// bandwidths; subsequent flushes migrate subgroups
					// toward the faster paths.
					if ap.AdaptivePlacement && len(tiers) > 1 {
						plan = placement.NewPlan(M, est.Bandwidths(tierNames, 1))
					}
				}
				barrier.Await(p) // replanning visible to all before next iteration
			}
		})
	}

	if err := sim.Run(); err != nil {
		return nil, fmt.Errorf("simrun: %w", err)
	}

	// Assemble node-level iteration records.
	res := &Result{Config: cfg, Trace: trace, CacheSlotsPerWorker: slots}
	if len(tiers) > 0 {
		res.PlanRatio = plan.Ratio()
	}
	res.Series.Warmup = cfg.Warmup
	for i := range iters {
		st := stamps[i]
		iters[i].Phases = metrics.Phases{
			Forward:  st.fwdEnd - st.start,
			Backward: st.bwdEnd - st.fwdEnd,
			Update:   st.updEnd - st.bwdEnd,
		}
		// Tier distribution snapshot (end of run state applies to each
		// iteration equally once warm; recompute cheaply from final loc).
		res.Series.Append(iters[i])
	}
	mean := res.Series.Mean()
	mean.TierBytes = tierDistribution(workers, sgParams, tiers, W)
	res.Mean = mean
	return res, nil
}

// tierOf resolves the tier for a subgroup that may be host-resident (use
// its planned tier for gradient objects).
func tierOf(loc int, plan placement.Plan, sg int) int {
	if loc >= 0 {
		return loc
	}
	return plan.TierFor(sg)
}

func posOf(order []int, sg int) int {
	for i, v := range order {
		if v == sg {
			return i
		}
	}
	return -1
}

// workerState is one worker's residency bookkeeping.
type workerState struct {
	lru   *hostcache.LRU
	loc   []int // -1 = host, else tier index
	phase int
}

// tierDistribution sums optimizer-state bytes by final location across all
// workers of the node.
func tierDistribution(workers []*workerState, sgParams []int64, tiers []*tierRes, W int) map[string]float64 {
	out := make(map[string]float64)
	for _, ws := range workers {
		for i, loc := range ws.loc {
			b := float64(sgParams[i]) * 12
			if loc == -1 {
				out["host"] += b
			} else {
				out[tiers[loc].name] += b
			}
		}
	}
	return out
}

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
