// The simulator pipeline: the DES model of the offloading engine. Every
// tier operation goes through a des.Sched per (tier, GPU worker), the
// analogue of the aio engine objects the runtime instantiates per storage
// path per process. The paper's approaches run through it with one FIFO
// class and every engine feature beyond the paper off; those features are
// class-based priority with aging, background live migration after
// replans, codec wire-vs-raw accounting, vectored fetch coalescing,
// per-op submission overhead, co-tenant checkpoint storms and mid-run
// tier failures.
package simrun

import (
	"fmt"

	"github.com/datastates/mlpoffload/internal/aio"
	"github.com/datastates/mlpoffload/internal/cluster"
	"github.com/datastates/mlpoffload/internal/des"
	"github.com/datastates/mlpoffload/internal/hostcache"
	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/placement"
)

// schedTier is one storage device. By default it is the paper's
// half-duplex device: reads and writes share it, so one byte read costs
// 1/ReadBW device-seconds and one byte written costs 1/WriteBW, on a link
// of unit capacity (one device-second per second). Concurrent
// uncoordinated clients additionally pay the interference curve, while
// exclusive access (the MLP-Offload concurrency control) serializes via
// the mutex and sees the full device. With FullDuplex it is instead a pair
// of independent byte-rate links matching storage.Throttled's two token
// buckets. One Sched per GPU worker feeds it.
type schedTier struct {
	name       string
	spec       cluster.StorageTierSpec
	dev        *des.Link // half-duplex device-time link (nil when full duplex)
	rdev, wdev *des.Link // full-duplex byte links (nil when half duplex)
	mu         *des.Mutex
	scheds     []*des.Sched
}

// scale shifts the tier's delivered bandwidth (external PFS load, mid-run
// device failure). Half-duplex transfers are priced at admission from the
// spec; full-duplex links change rate for in-flight transfers too.
func (t *schedTier) scale(f float64) {
	t.spec.ReadBW *= f
	t.spec.WriteBW *= f
	if t.rdev != nil {
		t.rdev.SetPeak(t.spec.ReadBW)
		t.wdev.SetPeak(t.spec.WriteBW)
	}
}

// schedRun carries the shared state of one simulated run.
type schedRun struct {
	cfg      Config
	sim      *des.Sim
	tiers    []*schedTier
	est      *placement.Estimator
	plan     placement.Plan
	sgParams []int64

	classes []string
	classOf func(aio.Class) int

	codecRatio float64 // raw/wire; 1 = no codec
	encBW      float64 // raw bytes/s; 0 = free
	decBW      float64

	clients   int
	stormStop bool

	fetchLat   []float64
	ckptLat    []float64
	ckptOps    int64
	migrations int64
	migBytes   float64
	traceLog   []string
	trace      []SubgroupIO
}

// migrationWindow bounds concurrent background copies per worker, the
// engine's default MigrationWindow.
const migrationWindow = 2

// workerState is one GPU worker's residency and migration bookkeeping.
type workerState struct {
	lru       *hostcache.LRU
	loc       []int // -1 = host, else tier index
	phase     int
	migrating map[int]*des.Event
	migQueue  []int
	migActive int
}

// release drops one pipeline client (worker, storm job, migrator); the
// last one out closes every scheduler so idle service procs exit.
func (r *schedRun) release() {
	r.clients--
	if r.clients == 0 {
		for _, t := range r.tiers {
			for _, sc := range t.scheds {
				sc.Close()
			}
		}
	}
}

// wire converts raw caller bytes to device-level bytes under the codec.
func (r *schedRun) wire(raw float64) float64 { return raw / r.codecRatio }

// readExec returns the service closure for a read: exclusive lock, device
// transfer of the wire bytes, estimator observation, decode cost. The
// estimator observes the device transfer alone: feeding lock and queue
// delay back into placement would destabilize it.
func (r *schedRun) readExec(t *schedTier, raw, wireB float64) func(p *des.Proc) {
	return func(p *des.Proc) {
		if t.mu != nil {
			t.mu.Lock(p)
		}
		t0 := p.Now()
		if t.rdev != nil {
			t.rdev.Transfer(p, wireB)
		} else {
			t.dev.Transfer(p, wireB/t.spec.ReadBW)
		}
		xfer := p.Now() - t0
		if t.mu != nil {
			t.mu.Unlock(p)
		}
		r.est.ObserveRead(t.name, wireB, xfer)
		if r.decBW > 0 && r.codecRatio > 1 {
			p.Sleep(raw / r.decBW)
		}
	}
}

// writeExec is readExec's mirror: encode cost, then the device transfer.
func (r *schedRun) writeExec(t *schedTier, raw, wireB float64) func(p *des.Proc) {
	return func(p *des.Proc) {
		if r.encBW > 0 && r.codecRatio > 1 {
			p.Sleep(raw / r.encBW)
		}
		if t.mu != nil {
			t.mu.Lock(p)
		}
		t0 := p.Now()
		if t.wdev != nil {
			t.wdev.Transfer(p, wireB)
		} else {
			t.dev.Transfer(p, wireB/t.spec.WriteBW)
		}
		xfer := p.Now() - t0
		if t.mu != nil {
			t.mu.Unlock(p)
		}
		r.est.ObserveWrite(t.name, wireB, xfer)
	}
}

// submitWrite queues a write and a bridge proc that records it into the
// iteration accumulator and calls done with the latency the runtime
// perceives (queueing included).
func (r *schedRun) submitWrite(w int, t *schedTier, class aio.Class, name string, raw float64, it *metrics.Iteration, done func(latency float64)) {
	wireB := r.wire(raw)
	op := t.scheds[w].Submit(r.classOf(class), name, raw, r.writeExec(t, raw, wireB))
	r.sim.Spawn(name+".done", func(p *des.Proc) {
		op.Wait(p)
		it.BytesWritten += raw
		it.WireBytesWritten += wireB
		it.WriteTime += op.Latency()
		it.RecordClassIO(r.classes[op.Class()], raw, wireB, op.QueueDelay(), op.Latency()-op.QueueDelay())
		done(op.Latency())
	})
}

// pendingFetch tracks one subgroup's in-flight fetch for the update loop.
type pendingFetch struct {
	ev    *des.Event
	op    *des.SchedOp // nil while gated on a migration
	sched *des.Sched
}

// submitFetchBatch queues one (possibly vectored) state read covering the
// batch, plus per-subgroup gradient reads in no-skip mode, and a bridge
// proc that accounts the op and fires each member's event. A non-nil pos
// (update-order position by subgroup) records each member's perceived
// throughput into the Figure 5 trace.
func (r *schedRun) submitFetchBatch(w int, tierIdx int, batch []int, pos []int, it *metrics.Iteration, fetches map[int]*pendingFetch) {
	t := r.tiers[tierIdx]
	sc := t.scheds[w]
	var stateRaw float64
	for _, sg := range batch {
		stateRaw += float64(r.sgParams[sg]) * 12
	}
	stateWire := r.wire(stateRaw)
	op := sc.Submit(r.classOf(aio.Prefetch), fmt.Sprintf("w%d.fetch%d", w, batch[0]),
		stateRaw, r.readExec(t, stateRaw, stateWire))
	var gradOps []*des.SchedOp
	var gradRaw float64
	if !r.cfg.Approach.SkipGradFlush {
		for _, sg := range batch {
			raw := float64(r.sgParams[sg]) * 4
			gradRaw += raw
			gradOps = append(gradOps, sc.Submit(r.classOf(aio.GradRead),
				fmt.Sprintf("w%d.grad%d", w, sg), raw, r.readExec(t, raw, r.wire(raw))))
		}
	}
	evs := make([]*des.Event, len(batch))
	for i, sg := range batch {
		evs[i] = r.sim.NewEvent()
		fetches[sg] = &pendingFetch{ev: evs[i], op: op, sched: sc}
	}
	submitT := r.sim.Now()
	r.sim.Spawn(fmt.Sprintf("w%d.fetch%d.done", w, batch[0]), func(p *des.Proc) {
		op.Wait(p)
		it.RecordClassIO(r.classes[op.Class()], stateRaw, stateWire, op.QueueDelay(), op.Latency()-op.QueueDelay())
		for i, g := range gradOps {
			g.Wait(p)
			raw := float64(r.sgParams[batch[i]]) * 4
			it.RecordClassIO(r.classes[g.Class()], raw, r.wire(raw), g.QueueDelay(), g.Latency()-g.QueueDelay())
		}
		perceived := p.Now() - submitT
		it.BytesRead += stateRaw + gradRaw
		it.WireBytesRead += stateWire + r.wire(gradRaw)
		it.ReadTime += perceived
		r.fetchLat = append(r.fetchLat, perceived)
		for i, ev := range evs {
			if pos != nil {
				r.trace = append(r.trace, SubgroupIO{Pos: pos[batch[i]], ReadBW: (stateRaw + gradRaw) / perceived})
			}
			ev.Fire()
		}
	})
}

// Run simulates one node of the configured system (nodes are symmetric;
// inter-node collective cost is added to the backward pass) and returns
// the measured result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
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
	r := &schedRun{cfg: cfg, sim: sim, est: placement.NewEstimator(0.5), codecRatio: 1}
	if ap.CodecRatio > 1 {
		r.codecRatio = ap.CodecRatio
		r.encBW = ap.CodecEncBW
		r.decBW = ap.CodecDecBW
	}
	if ap.PriorityIO {
		r.classes = make([]string, aio.NumClasses)
		for i, c := range aio.Classes() {
			r.classes[i] = c.String()
		}
		r.classOf = func(c aio.Class) int { return int(c) }
	} else {
		// Flat FIFO: the paper's runtimes, and the storm scenario's
		// contrast arm.
		r.classes = []string{"fifo"}
		r.classOf = func(aio.Class) int { return 0 }
	}
	aging := 0.0
	if ap.PriorityIO {
		aging = aio.DefaultAgingThreshold.Seconds()
	}
	ioWorkers := cfg.IOWorkers
	if ioWorkers <= 0 {
		ioWorkers = 2 // aio default worker pool per engine object
	}
	var traceFn func(string)
	if cfg.TraceEvents {
		traceFn = func(line string) { r.traceLog = append(r.traceLog, line) }
	}

	mkTier := func(spec cluster.StorageTierSpec) *schedTier {
		// Interference counts competing processes (one per GPU), not raw
		// in-flight ops: deeper queues from one worker do not add device
		// interference, they just wait their turn.
		curve := des.CappedInterference(spec.InterferenceAlpha, W)
		t := &schedTier{name: spec.Name, spec: spec}
		if cfg.FullDuplex {
			t.rdev = sim.NewLink(spec.Name+".r", spec.ReadBW, curve)
			t.wdev = sim.NewLink(spec.Name+".w", spec.WriteBW, curve)
		} else {
			t.dev = sim.NewLink(spec.Name, 1.0, curve)
		}
		if ap.ExclusiveIO {
			t.mu = sim.NewMutex()
		}
		t.scheds = make([]*des.Sched, W)
		for w := 0; w < W; w++ {
			t.scheds[w] = sim.NewSched(fmt.Sprintf("%s.w%d", spec.Name, w), des.SchedConfig{
				Workers:  ioWorkers,
				Classes:  r.classes,
				Aging:    aging,
				Overhead: cfg.OpOverhead,
				Trace:    traceFn,
			})
		}
		return t
	}
	if !cfg.CPUOnly {
		r.tiers = append(r.tiers, mkTier(tb.NVMe))
		if ap.UsePFS {
			r.tiers = append(r.tiers, mkTier(tb.PFS))
		}
	}
	if len(r.tiers) == 0 && cfg.CheckpointJobs > 0 {
		return nil, fmt.Errorf("simrun: checkpoint storm needs a storage tier")
	}

	// CPU update resource: processor-sharing across workers, measured in
	// parameters/second.
	cpu := sim.NewLink("cpu", tb.CPUUpdateParamsPerSec, nil)

	// Placement plan (per worker; identical for all workers), seeded from
	// the microbenchmark bandwidths and, with adaptive placement, re-fit
	// each iteration from EWMA-smoothed observed bandwidths.
	tierNames := make([]string, len(r.tiers))
	if len(r.tiers) > 0 {
		tbw := make([]placement.TierBandwidth, len(r.tiers))
		for i, t := range r.tiers {
			tbw[i] = placement.TierBandwidth{Name: t.name, BW: t.spec.MinBW()}
			r.est.Seed(t.name, t.spec.ReadBW, t.spec.WriteBW)
			tierNames[i] = t.name
		}
		r.plan = placement.NewPlan(M, tbw)
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
	if cfg.CacheSlots > 0 {
		slots = min(cfg.CacheSlots, M)
	}
	prefetchDepth := min(4, slots)
	if ap.Order != hostcache.Alternating {
		prefetchDepth = 1
	}
	if cfg.PrefetchDepth > 0 {
		prefetchDepth = min(cfg.PrefetchDepth, M)
	}
	coalesce := ap.CoalesceFetches
	if coalesce < 2 {
		coalesce = 1
	}

	// Compute-time model.
	tokensPerStep := float64(cfg.Model.SeqLen * cfg.MicroBatch)
	fwdTime := cfg.Model.FLOPsPerToken() * tokensPerStep / (tb.GPU.TFLOPS * 1e12)
	bwdComputeTime := 3 * fwdTime // 2x backward + 1x activation recompute
	// Inter-node collectives (tensor parallel intra-node, data parallel
	// across nodes): FP16 gradient reduce-scatter + parameter all-gather,
	// sharded 1/W by tensor parallelism.
	commTime := cluster.CollectiveTime(2*2*float64(totalParams)/float64(W), cfg.Nodes, tb.InterconnectBW)

	r.sgParams = make([]int64, M)
	for i := range r.sgParams {
		n := cfg.SubgroupParams
		if rem := shardParams - int64(i)*cfg.SubgroupParams; rem < n {
			n = rem
		}
		r.sgParams[i] = n
	}

	workers := make([]*workerState, W)
	for w := range workers {
		ws := &workerState{lru: hostcache.NewLRU(slots), loc: make([]int, M), migrating: make(map[int]*des.Event)}
		for i := range ws.loc {
			if cfg.CPUOnly {
				ws.loc[i] = -1
			} else {
				ws.loc[i] = r.plan.TierFor(i)
			}
		}
		workers[w] = ws
	}

	// Measurement state (DES is single-threaded: plain fields suffice).
	iters := make([]metrics.Iteration, cfg.Iterations)
	for i := range iters {
		iters[i].TierBytes = make(map[string]float64)
	}
	type phaseStamp struct{ fwdEnd, bwdEnd, updEnd, start float64 }
	stamps := make([]phaseStamp, cfg.Iterations)

	barrier := sim.NewBarrier(W)

	const fp16Bytes = 2.0
	d2h := tb.GPU.PinnedBandwidth
	conv := tb.CPUConvertBytesPerSec

	// kickMigration drains a worker's misplaced subgroups toward the plan
	// in the background: up to migrationWindow concurrent copies at
	// Migration class, each a read from the stale tier plus a write to the
	// planned one (the engine's migrator loop).
	kickMigration := func(w int, ws *workerState) {
		for sg := 0; sg < M; sg++ {
			if ws.loc[sg] >= 0 && ws.loc[sg] != r.plan.TierFor(sg) && ws.migrating[sg] == nil {
				ws.migQueue = append(ws.migQueue, sg)
				ws.migrating[sg] = sim.NewEvent()
			}
		}
		for ws.migActive < migrationWindow && len(ws.migQueue) > 0 {
			ws.migActive++
			r.clients++
			sim.Spawn(fmt.Sprintf("w%d.migrator%d", w, ws.migActive), func(p *des.Proc) {
				for len(ws.migQueue) > 0 {
					sg := ws.migQueue[0]
					ws.migQueue = ws.migQueue[1:]
					ev := ws.migrating[sg]
					src, dst := ws.loc[sg], r.plan.TierFor(sg)
					if src < 0 || src == dst {
						delete(ws.migrating, sg)
						ev.Fire()
						continue
					}
					raw := float64(r.sgParams[sg]) * 12
					rd := r.tiers[src].scheds[w].Submit(r.classOf(aio.Migration),
						fmt.Sprintf("w%d.mig%d.r", w, sg), raw, r.readExec(r.tiers[src], raw, r.wire(raw)))
					rd.Wait(p)
					wr := r.tiers[dst].scheds[w].Submit(r.classOf(aio.Migration),
						fmt.Sprintf("w%d.mig%d.w", w, sg), raw, r.writeExec(r.tiers[dst], raw, r.wire(raw)))
					wr.Wait(p)
					ws.loc[sg] = dst
					r.migrations++
					r.migBytes += raw
					delete(ws.migrating, sg)
					ev.Fire()
				}
				ws.migActive--
				r.release()
			})
		}
	}

	fetchBytesOf := func(sg int) float64 {
		if ap.SkipGradFlush {
			return float64(r.sgParams[sg]) * 12
		}
		return float64(r.sgParams[sg]) * 16
	}

	r.clients = W
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
						iter == cfg.PFSLoadAfter && ap.UsePFS && len(r.tiers) > 1 {
						r.tiers[1].scale(cfg.PFSLoadFactor)
					}
					if cfg.TierFailFactor > 0 && cfg.TierFailFactor < 1 &&
						iter == cfg.TierFailAfter && cfg.TierFailTier < len(r.tiers) {
						r.tiers[cfg.TierFailTier].scale(cfg.TierFailFactor)
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
				// waiting for the previous flush, exactly the "large
				// asynchronous FP32 gradient flushes that can delay the
				// backward pass" the paper eliminates.
				var prevGradFlush *des.Event
				for a := 0; a < cfg.GradAccumSteps; a++ {
					last := a == cfg.GradAccumSteps-1
					for i := 0; i < M; i++ {
						n := float64(r.sgParams[i])
						p.Sleep(bwdComputeTime / float64(M))
						p.Sleep(n * fp16Bytes / d2h) // FP16 grads D2H
						if !ap.SkipGradFlush && last && !cfg.CPUOnly {
							// Upscale to FP32 and flush to the subgroup's
							// tier asynchronously.
							p.Sleep(n * 4 / conv)
							if prevGradFlush != nil {
								prevGradFlush.Wait(p)
							}
							tier := r.tiers[tierOf(ws.loc[i], r.plan, i)]
							ev := sim.NewEvent()
							prevGradFlush = ev
							r.submitWrite(w, tier, aio.Flush, fmt.Sprintf("w%d.gflush%d", w, i), n*4, it, func(float64) { ev.Fire() })
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
				// Figure 5 trace: worker 0's update-phase fetches and
				// flushes in the first measured iteration.
				var pos []int
				if cfg.TraceSubgroups && w == 0 && iter == cfg.Warmup {
					pos = make([]int, M)
					for i, sg := range order {
						pos[sg] = i
					}
				}
				fetches := make(map[int]*pendingFetch, prefetchDepth)
				var flushEvents []*des.Event
				inflight := 0
				pending := make([]int, len(order))
				copy(pending, order)
				// issue fills the prefetch window. A coalesced batch takes
				// same-tier subgroups from ahead of the head, so the window
				// can fill while an earlier subgroup is still unissued;
				// force issues the head anyway, for a consumer that needs
				// it now (the engine's consumer never passes its own fetch).
				issue := func(force bool) {
					for len(pending) > 0 && (force || inflight < prefetchDepth) {
						force = false
						sgID := pending[0]
						pending = pending[1:]
						if cfg.CPUOnly || ws.loc[sgID] == -1 {
							continue
						}
						if mig := ws.migrating[sgID]; mig != nil {
							// Gated on a background copy: a waiter proc
							// fetches from the post-migration location.
							inflight++
							pf := &pendingFetch{ev: sim.NewEvent()}
							fetches[sgID] = pf
							sg := sgID
							submitT := sim.Now()
							sim.Spawn(fmt.Sprintf("w%d.migwait%d", w, sg), func(mp *des.Proc) {
								mig.Wait(mp)
								if ws.loc[sg] == -1 {
									pf.ev.Fire()
									return
								}
								t := r.tiers[ws.loc[sg]]
								raw := fetchBytesOf(sg)
								wireB := r.wire(raw)
								op := t.scheds[w].Submit(r.classOf(aio.Prefetch),
									fmt.Sprintf("w%d.fetch%d", w, sg), raw, r.readExec(t, raw, wireB))
								pf.op, pf.sched = op, t.scheds[w]
								op.Wait(mp)
								perceived := mp.Now() - submitT
								it.BytesRead += raw
								it.WireBytesRead += wireB
								it.ReadTime += perceived
								it.RecordClassIO(r.classes[op.Class()], raw, wireB, op.QueueDelay(), op.Latency()-op.QueueDelay())
								r.fetchLat = append(r.fetchLat, perceived)
								if pos != nil {
									r.trace = append(r.trace, SubgroupIO{Pos: pos[sg], ReadBW: raw / perceived})
								}
								pf.ev.Fire()
							})
							continue
						}
						tier := ws.loc[sgID]
						batch := []int{sgID}
						// Vectored gather: fill the batch with same-tier
						// subgroups from the prefetch window, skipping (not
						// dropping) entries bound elsewhere — the engine's
						// vectored reads batch per pool file, not per
						// consume-order run. The head is always issued, so a
						// partial batch can never stall the consumer, and
						// the depth window rounds up to batch granularity
						// (outstanding objects <= depth+coalesce-1).
						for i := 0; i < len(pending) && i < prefetchDepth && len(batch) < coalesce; {
							next := pending[i]
							if ws.loc[next] == tier && ws.migrating[next] == nil {
								batch = append(batch, next)
								pending = append(pending[:i], pending[i+1:]...)
							} else {
								i++
							}
						}
						inflight += len(batch)
						r.submitFetchBatch(w, tier, batch, pos, it, fetches)
					}
				}
				issue(false)
				for _, sgID := range order {
					if len(pending) > 0 && pending[0] == sgID {
						issue(true)
					}
					n := float64(r.sgParams[sgID])
					if pf, ok := fetches[sgID]; ok {
						if !pf.ev.Fired() && pf.op != nil {
							// The consumer is blocked on it right now:
							// promote prefetch → demand fetch (aio's
							// promotion path).
							pf.sched.Promote(pf.op)
						}
						pf.ev.Wait(p)
						delete(fetches, sgID)
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
							dst := r.plan.TierFor(evicted)
							ws.loc[evicted] = dst
							ev := sim.NewEvent()
							flushEvents = append(flushEvents, ev)
							raw := float64(r.sgParams[evicted]) * 12
							r.submitWrite(w, r.tiers[dst], aio.Flush, fmt.Sprintf("w%d.flush%d", w, evicted), raw, it, func(lat float64) {
								if pos != nil {
									r.trace = append(r.trace, SubgroupIO{Pos: pos[evicted], WriteBW: raw / lat})
								}
								ev.Fire()
							})
						}
					}
					issue(false)
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
					// bandwidths; flushes and the migrator move subgroups
					// toward the faster paths.
					if ap.AdaptivePlacement && len(r.tiers) > 1 {
						r.plan = placement.NewPlan(M, r.est.Bandwidths(tierNames, 1))
					}
				}
				barrier.Await(p) // replanning visible to all before next iteration
				// Background convergence toward the fresh plan; skipped
				// after the final iteration (nothing left to serve).
				if ap.LiveMigration && len(r.tiers) > 1 && iter < cfg.Iterations-1 {
					kickMigration(w, ws)
				}
			}
			if w == 0 {
				r.stormStop = true
			}
			r.release()
		})
	}

	// Co-tenant checkpoint storm: each job keeps one Checkpoint-class
	// write in flight against the persistent tier for the whole run.
	if cfg.CheckpointJobs > 0 {
		target := r.tiers[len(r.tiers)-1]
		ckptBytes := cfg.CheckpointBytes
		if ckptBytes <= 0 {
			ckptBytes = stateBytesPerSG
		}
		r.clients += cfg.CheckpointJobs
		for j := 0; j < cfg.CheckpointJobs; j++ {
			j := j
			w := j % W
			sim.Spawn(fmt.Sprintf("ckptjob%d", j), func(p *des.Proc) {
				if cfg.CheckpointInterval > 0 {
					// Staggered starts: real co-tenants are not in lockstep.
					p.Sleep(cfg.CheckpointInterval * float64(j) / float64(cfg.CheckpointJobs))
				}
				for !r.stormStop {
					// External tenants bypass our codec: raw == wire.
					op := target.scheds[w].Submit(r.classOf(aio.Checkpoint),
						fmt.Sprintf("ckpt%d", j), ckptBytes, r.writeExec(target, ckptBytes, ckptBytes))
					op.Wait(p)
					r.ckptOps++
					r.ckptLat = append(r.ckptLat, op.Latency())
					if cfg.CheckpointInterval > 0 {
						p.Sleep(cfg.CheckpointInterval)
					}
				}
				r.release()
			})
		}
	}

	if err := sim.Run(); err != nil {
		return nil, fmt.Errorf("simrun: %w", err)
	}

	res := &Result{Config: cfg, Trace: r.trace, CacheSlotsPerWorker: slots}
	if len(r.tiers) > 0 {
		res.PlanRatio = r.plan.Ratio()
	}
	res.Series.Warmup = cfg.Warmup
	for i := range iters {
		st := stamps[i]
		iters[i].Phases = metrics.Phases{
			Forward:  st.fwdEnd - st.start,
			Backward: st.bwdEnd - st.fwdEnd,
			Update:   st.updEnd - st.bwdEnd,
		}
		res.Series.Append(iters[i])
	}
	// Optimizer-state bytes by final location across all workers of the
	// node, and the offloaded subgroups left off-plan.
	mean := res.Series.Mean()
	mean.TierBytes = make(map[string]float64)
	for _, ws := range workers {
		for sg, loc := range ws.loc {
			b := float64(r.sgParams[sg]) * 12
			if loc == -1 {
				mean.TierBytes["host"] += b
				continue
			}
			mean.TierBytes[r.tiers[loc].name] += b
			if loc != r.plan.TierFor(sg) {
				res.MisplacedEnd++
			}
		}
	}
	res.Mean = mean

	// Run-level class accounting, aggregated across every scheduler in a
	// fixed (tier, worker) order so percentile inputs are deterministic.
	res.Classes = make(map[string]ClassStat, len(r.classes))
	for c, name := range r.classes {
		var cs ClassStat
		var lat []float64
		for _, t := range r.tiers {
			for _, sc := range t.scheds {
				st := sc.ClassStats(c)
				cs.Ops += st.Ops
				cs.Bytes += st.Bytes
				cs.QueueDelay += st.QueueDelay
				cs.Service += st.Service
				lat = append(lat, sc.Latencies(c)...)
			}
		}
		cs.WireBytes = cs.Bytes / r.codecRatio
		cs.P50 = des.Percentile(lat, 50)
		cs.P95 = des.Percentile(lat, 95)
		if cs.Ops > 0 {
			res.Classes[name] = cs
		}
	}
	res.Migrations = r.migrations
	res.MigratedBytes = r.migBytes
	res.FetchP50 = des.Percentile(r.fetchLat, 50)
	res.FetchP95 = des.Percentile(r.fetchLat, 95)
	res.CheckpointOps = r.ckptOps
	res.CheckpointP95 = des.Percentile(r.ckptLat, 95)
	res.EventTrace = r.traceLog
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
