package des

import (
	"fmt"
	"sort"

	"github.com/datastates/mlpoffload/internal/agepick"
)

// Sched is a class-based priority scheduler: the DES analogue of the aio
// engine's multi-level queue (demand fetch > grad read > prefetch > flush >
// checkpoint > migration, with aging). A fixed pool of worker processes
// drains per-class FIFO queues, always serving the most urgent non-empty
// class, except that any op older than the aging threshold is served
// oldest-first regardless of class — the same starvation guard the real
// engine applies, through the same pick function (internal/agepick).
//
// Ops carry an execution closure (typically a Mutex-guarded Link transfer
// plus codec sleeps) so the scheduler composes with the existing DES
// resources instead of duplicating them.
type Sched struct {
	sim    *Sim
	name   string
	cfg    SchedConfig
	queues [][]*SchedOp
	idle   []*Proc
	closed bool
	stats  []ClassStats
	lat    [][]float64 // per-class completion latency samples (seconds)
	trace  func(line string)
}

// SchedConfig configures a Sched.
type SchedConfig struct {
	// Workers is the number of concurrent service processes. Zero is
	// allowed and models a wedged device: submitted ops never execute, so
	// waiters show up in the deadlock report with their class named.
	Workers int
	// Classes names the priority classes; index 0 is the most urgent.
	Classes []string
	// Aging is the starvation threshold in seconds: a queued op older than
	// this is served oldest-first regardless of class. <= 0 disables aging.
	Aging float64
	// Overhead is a fixed per-op setup cost in seconds paid by the worker
	// before the op's Exec runs (submission syscall + queue handling in the
	// real engine). This is exactly the cost vectored coalescing amortizes:
	// a batch of k fetches submitted as one op pays it once instead of k
	// times.
	Overhead float64
	// Trace, when set, receives one deterministic line per completed op.
	Trace func(line string)
}

// ClassStats aggregates completed-op accounting for one class.
type ClassStats struct {
	Ops        int64
	Bytes      float64
	QueueDelay float64 // total seconds spent queued before service
	Service    float64 // total seconds of service (overhead + exec)
}

// SchedOp is one submitted operation.
type SchedOp struct {
	sched  *Sched
	class  int
	name   string
	bytes  float64
	queued float64
	exec   func(p *Proc)

	started  float64
	finished float64
	done     *Event
}

// NewSched creates a scheduler owned by sim. Worker processes are spawned
// immediately and park idle until ops arrive. Call Close when no more ops
// will be submitted, or idle workers count as deadlocked at Run's end.
func (s *Sim) NewSched(name string, cfg SchedConfig) *Sched {
	if len(cfg.Classes) == 0 {
		panic("des: sched needs at least one class")
	}
	if cfg.Workers < 0 {
		panic("des: negative sched worker count")
	}
	sc := &Sched{
		sim:    s,
		name:   name,
		cfg:    cfg,
		queues: make([][]*SchedOp, len(cfg.Classes)),
		stats:  make([]ClassStats, len(cfg.Classes)),
		lat:    make([][]float64, len(cfg.Classes)),
		trace:  cfg.Trace,
	}
	for i := 0; i < cfg.Workers; i++ {
		s.Spawn(fmt.Sprintf("%s.w%d", name, i), sc.worker)
	}
	return sc
}

// Name returns the scheduler's name.
func (sc *Sched) Name() string { return sc.name }

// Submit queues an op and returns it. exec runs in a worker process's
// context and may block on any DES resource; nil exec completes after just
// the configured overhead. Panics if the scheduler is closed.
func (sc *Sched) Submit(class int, name string, bytes float64, exec func(p *Proc)) *SchedOp {
	if sc.closed {
		panic("des: submit on closed sched " + sc.name)
	}
	if class < 0 || class >= len(sc.queues) {
		panic(fmt.Sprintf("des: sched %s: class %d out of range", sc.name, class))
	}
	op := &SchedOp{
		sched:  sc,
		class:  class,
		name:   name,
		bytes:  bytes,
		queued: sc.sim.now,
		exec:   exec,
		done:   sc.sim.NewEvent(),
	}
	sc.queues[class] = append(sc.queues[class], op)
	sc.wakeOne()
	return op
}

// Promote moves a still-queued op to the most urgent class (a prefetch that
// became a demand fetch). No-op once service has started or if the op is
// already at class 0.
func (sc *Sched) Promote(op *SchedOp) {
	if op.sched != sc || op.class == 0 || op.done.Fired() || op.started > 0 {
		return
	}
	q := sc.queues[op.class]
	for i, o := range q {
		if o == op {
			sc.queues[op.class] = append(q[:i], q[i+1:]...)
			op.class = 0
			sc.queues[0] = append(sc.queues[0], op)
			return
		}
	}
}

// Close marks the scheduler finished: idle workers exit once all queues are
// drained. Safe to call once; Submit afterwards panics.
func (sc *Sched) Close() {
	if sc.closed {
		return
	}
	sc.closed = true
	sc.wakeAll()
}

// ClassStats returns the completed-op accounting for one class.
func (sc *Sched) ClassStats(class int) ClassStats { return sc.stats[class] }

// Latencies returns a copy of the completion-latency samples (queue + service
// seconds) recorded for one class, in completion order.
func (sc *Sched) Latencies(class int) []float64 {
	return append([]float64(nil), sc.lat[class]...)
}

// Percentile returns the q-th percentile (0-100) of a sample set, or 0 for
// an empty set. Exposed so reports use one definition.
func Percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(q / 100 * float64(len(s)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// wakeOne unparks one idle worker via a zero-delay event.
func (sc *Sched) wakeOne() {
	if len(sc.idle) == 0 {
		return
	}
	w := sc.idle[0]
	sc.idle = sc.idle[1:]
	sc.sim.schedule(0, func() { sc.sim.runProc(w) })
}

func (sc *Sched) wakeAll() {
	for _, w := range sc.idle {
		wp := w
		sc.sim.schedule(0, func() { sc.sim.runProc(wp) })
	}
	sc.idle = nil
}

// pick dequeues the next op under the shared aging-then-priority policy
// (internal/agepick, the same function the aio engine calls), or nil.
func (sc *Sched) pick() *SchedOp {
	queued := func(op *SchedOp) float64 { return op.queued }
	c := agepick.Pick(sc.queues, queued, sc.cfg.Aging > 0, sc.sim.now-sc.cfg.Aging)
	if c < 0 {
		return nil
	}
	q := sc.queues[c]
	op := q[0]
	sc.queues[c] = append(q[:0], q[1:]...)
	return op
}

// worker is the service loop: pick, pay overhead, exec, account, signal.
func (sc *Sched) worker(p *Proc) {
	for {
		op := sc.pick()
		if op == nil {
			if sc.closed {
				return
			}
			sc.idle = append(sc.idle, p)
			p.park("sched-idle:" + sc.name)
			continue
		}
		op.started = p.Now()
		if sc.cfg.Overhead > 0 {
			p.Sleep(sc.cfg.Overhead)
		}
		if op.exec != nil {
			op.exec(p)
		}
		op.finished = p.Now()
		st := &sc.stats[op.class]
		st.Ops++
		st.Bytes += op.bytes
		st.QueueDelay += op.started - op.queued
		st.Service += op.finished - op.started
		sc.lat[op.class] = append(sc.lat[op.class], op.finished-op.queued)
		if sc.trace != nil {
			sc.trace(fmt.Sprintf("%.9f %s %s %s %.0f q=%.9f s=%.9f",
				op.finished, sc.name, sc.cfg.Classes[op.class], op.name,
				op.bytes, op.started-op.queued, op.finished-op.started))
		}
		op.done.Fire()
	}
}

// Wait parks p until the op completes. The park reason names the scheduler
// and class so a starved class is identifiable in deadlock reports.
func (op *SchedOp) Wait(p *Proc) {
	op.done.waitReason(p, fmt.Sprintf("sched-wait:%s:%s",
		op.sched.name, op.sched.cfg.Classes[op.class]))
}

// Done reports whether the op has completed.
func (op *SchedOp) Done() bool { return op.done.Fired() }

// Class returns the op's current class (promotion changes it).
func (op *SchedOp) Class() int { return op.class }

// QueueDelay returns seconds spent queued before service (valid once done).
func (op *SchedOp) QueueDelay() float64 { return op.started - op.queued }

// Latency returns queue + service seconds (valid once done).
func (op *SchedOp) Latency() float64 { return op.finished - op.queued }
