package aio

//mlpvet:allowfile clockcheck real sleeps and timeout guards exercise genuine goroutine interleaving

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/datastates/mlpoffload/internal/clock"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/tiercodec"
	"github.com/datastates/mlpoffload/internal/tierlock"
)

func TestReadWriteRoundTrip(t *testing.T) {
	e := New(storage.NewMemTier("m"), Config{Workers: 2})
	defer e.Close()

	payload := []byte{1, 2, 3, 4, 5}
	wop, err := e.SubmitWriteClass(Flush, "k", payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := wop.Wait(); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(payload))
	rop, err := e.SubmitReadClass(DemandFetch, "k", dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := rop.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, payload) {
		t.Fatalf("round trip: %v", dst)
	}
	if wop.Kind.String() != "write" || rop.Kind.String() != "read" {
		t.Error("kind strings wrong")
	}
}

func TestSyncHelpers(t *testing.T) {
	e := New(storage.NewMemTier("m"), Config{})
	defer e.Close()
	if err := e.WriteSync("k", []byte{7}); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 1)
	if err := e.ReadSync("k", dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 7 {
		t.Fatal("sync round trip failed")
	}
}

func TestErrorPropagation(t *testing.T) {
	e := New(storage.NewMemTier("m"), Config{})
	defer e.Close()
	op, err := e.SubmitReadClass(DemandFetch, "missing", make([]byte, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Wait(); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	m := e.Metrics()
	if m.OpsFailed != 1 {
		t.Errorf("OpsFailed = %d", m.OpsFailed)
	}
}

func TestMetricsAccumulate(t *testing.T) {
	e := New(storage.NewMemTier("m"), Config{Workers: 1})
	defer e.Close()
	for i := 0; i < 5; i++ {
		if err := e.WriteSync(fmt.Sprintf("k%d", i), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, 100)
	for i := 0; i < 3; i++ {
		if err := e.ReadSync(fmt.Sprintf("k%d", i), dst); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.BytesWritten != 500 || m.BytesRead != 300 {
		t.Errorf("bytes = %d/%d", m.BytesRead, m.BytesWritten)
	}
	if m.OpsDone != 8 {
		t.Errorf("OpsDone = %d", m.OpsDone)
	}
	if m.ReadBW() <= 0 || m.WriteBW() <= 0 {
		t.Error("bandwidth should be measurable")
	}
}

func TestMetricsZeroBW(t *testing.T) {
	var m Metrics
	if m.ReadBW() != 0 || m.WriteBW() != 0 {
		t.Error("empty metrics should report 0 bandwidth")
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	e := New(storage.NewMemTier("m"), Config{})
	e.Close()
	e.Close() // idempotent
	if _, err := e.SubmitWriteClass(Flush, "k", []byte{1}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("want ErrEngineClosed, got %v", err)
	}
}

func TestCloseWaitsForQueued(t *testing.T) {
	mem := storage.NewMemTier("m")
	e := New(mem, Config{Workers: 1, QueueDepth: 32})
	ops := make([]*Op, 0, 10)
	for i := 0; i < 10; i++ {
		op, err := e.SubmitWriteClass(Flush, fmt.Sprintf("k%d", i), make([]byte, 10))
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	e.Close()
	for i, op := range ops {
		select {
		case <-op.Done():
			if op.Err() != nil {
				t.Errorf("op %d failed: %v", i, op.Err())
			}
		default:
			t.Fatalf("op %d not complete after Close", i)
		}
	}
	keys, _ := mem.Keys(context.Background())
	if len(keys) != 10 {
		t.Errorf("only %d objects written", len(keys))
	}
}

func TestDrainBarrier(t *testing.T) {
	e := New(storage.NewMemTier("m"), Config{Workers: 2, QueueDepth: 64})
	defer e.Close()
	for i := 0; i < 50; i++ {
		if _, err := e.SubmitWriteClass(Flush, fmt.Sprintf("k%d", i), make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	m := e.Metrics()
	if m.OpsDone != 50 {
		t.Errorf("after Drain OpsDone = %d, want 50", m.OpsDone)
	}
}

func TestWaitCtx(t *testing.T) {
	// A gate parks the op mid-execution so WaitCtx cancellation is
	// observed while the op genuinely runs — no real-time throttle needed.
	g := newGateTier()
	e := New(g, Config{Workers: 1})
	op, err := e.SubmitWriteClass(Flush, "k", make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := op.WaitCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitCtx = %v, want context.Canceled", err)
	}
	// The abandoned op keeps running: release it and verify it completes.
	close(g.gate)
	if err := op.Wait(); err != nil {
		t.Fatal(err)
	}
	e.Close()
}

func TestExclusiveLockSerializesTierAccess(t *testing.T) {
	locks := tierlock.NewManager(true)
	// Two engines on the same tier name (two workers of one node).
	tier := storage.NewMemTier("nvme")
	e1 := New(tier, Config{Workers: 2, Locks: locks})
	e2 := New(tier, Config{Workers: 2, Locks: locks})
	defer e1.Close()
	defer e2.Close()

	var wg sync.WaitGroup
	for i, e := range []*Engine{e1, e2} {
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if err := e.WriteSync(fmt.Sprintf("w%d-%d", i, k), make([]byte, 64)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i, e)
	}
	wg.Wait()
	if s := locks.Stats("nvme"); s.Grants != 40 {
		t.Errorf("lock grants = %d, want 40", s.Grants)
	}
}

func TestOpTimings(t *testing.T) {
	e := New(storage.NewMemTier("m"), Config{Workers: 1})
	defer e.Close()
	op, err := e.SubmitWriteClass(Flush, "k", make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Wait(); err != nil {
		t.Fatal(err)
	}
	if op.QueueTime() < 0 || op.TransferTime() < 0 {
		t.Error("negative timings")
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	e := New(storage.NewMemTier("m"), Config{Workers: 4, QueueDepth: 16})
	defer e.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				if err := e.WriteSync(key, []byte{byte(w), byte(i)}); err != nil {
					t.Error(err)
					return
				}
				dst := make([]byte, 2)
				if err := e.ReadSync(key, dst); err != nil {
					t.Error(err)
					return
				}
				if dst[0] != byte(w) || dst[1] != byte(i) {
					t.Errorf("corrupted read %v for %s", dst, key)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if m := e.Metrics(); m.OpsDone != 400 {
		t.Errorf("OpsDone = %d, want 400", m.OpsDone)
	}
}

// gateTier wraps a MemTier so the first operation blocks until release is
// closed, and records the order in which operations execute. It lets
// scheduler tests fill queues deterministically while the single worker is
// parked on the gate op.
type gateTier struct {
	storage.Tier
	gate  chan struct{}
	once  sync.Once
	mu    sync.Mutex
	order []string
}

func newGateTier() *gateTier {
	return &gateTier{Tier: storage.NewMemTier("g"), gate: make(chan struct{})}
}

func (g *gateTier) record(key string) {
	g.mu.Lock()
	g.order = append(g.order, key)
	g.mu.Unlock()
}

// hold makes the first op wait on the gate; later ops pass through.
func (g *gateTier) hold(key string) {
	first := false
	g.once.Do(func() { first = true })
	if first {
		<-g.gate
	}
	g.record(key)
}

func (g *gateTier) Read(ctx context.Context, key string, dst []byte) error {
	g.hold(key)
	return g.Tier.Read(ctx, key, dst)
}

func (g *gateTier) Write(ctx context.Context, key string, src []byte) error {
	g.hold(key)
	return g.Tier.Write(ctx, key, src)
}

func (g *gateTier) Delete(ctx context.Context, key string) error {
	g.hold(key)
	return g.Tier.Delete(ctx, key)
}

func (g *gateTier) executed() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.order...)
}

func TestClassOrderingUnderFullQueues(t *testing.T) {
	g := newGateTier()
	e := New(g, Config{Workers: 1, QueueDepth: 8, AgingThreshold: -1})
	defer e.Close()

	// Park the single worker on a gate op, then enqueue one op per class in
	// reverse priority order so FIFO arrival would invert the expected
	// service order.
	blocker, err := e.SubmitWriteClass(Migration, "blocker", []byte{0})
	if err != nil {
		t.Fatal(err)
	}
	for !workerParked(e) {
		time.Sleep(time.Millisecond)
	}
	classes := []Class{Migration, Checkpoint, Flush, Prefetch, GradRead, DemandFetch}
	ops := make([]*Op, 0, len(classes))
	for _, c := range classes {
		op, err := e.SubmitWriteClass(c, c.String(), []byte{1})
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	close(g.gate)
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := op.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	got := g.executed()
	want := []string{"blocker", "demand-fetch", "grad-read", "prefetch", "flush", "checkpoint", "migration"}
	if len(got) != len(want) {
		t.Fatalf("executed %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("service order %v, want %v", got, want)
		}
	}
}

// workerParked reports that the engine's worker picked up the gate op (the
// queues are empty and exactly one op is executing).
func workerParked(e *Engine) bool {
	if e.executing.Load() != 1 {
		return false
	}
	q := e.QueuedByClass()
	for _, n := range q {
		if n != 0 {
			return false
		}
	}
	return true
}

func TestAgingPreventsMigrationStarvation(t *testing.T) {
	g := newGateTier()
	clk := clock.NewVirtual()
	e := New(g, Config{Workers: 1, QueueDepth: 64, AgingThreshold: 10 * time.Millisecond, Clock: clk})
	defer e.Close()

	blocker, err := e.SubmitWriteClass(DemandFetch, "blocker", []byte{0})
	if err != nil {
		t.Fatal(err)
	}
	for !workerParked(e) {
		time.Sleep(time.Millisecond)
	}
	mig, err := e.SubmitWriteClass(Migration, "migration", []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	// Age the migration op to *exactly* the threshold — the aging rule is
	// inclusive (age >= threshold), so this pins the boundary — then bury
	// it under a stream of zero-age demand fetches. Strict priority would
	// run all of them first; aging must dispatch the older migration op
	// ahead of them.
	clk.Advance(10 * time.Millisecond)
	var demands []*Op
	for i := 0; i < 16; i++ {
		op, err := e.SubmitWriteClass(DemandFetch, fmt.Sprintf("demand-%02d", i), []byte{1})
		if err != nil {
			t.Fatal(err)
		}
		demands = append(demands, op)
	}
	close(g.gate)
	_ = blocker.Wait()
	_ = mig.Wait()
	for _, op := range demands {
		_ = op.Wait()
	}
	order := g.executed()
	if len(order) < 2 || order[1] != "migration" {
		t.Fatalf("aged migration op not served first: %v", order)
	}
	// Virtual time stood still after the advance, so the stamps are exact:
	// the migration op waited precisely the aging threshold.
	if got := mig.QueueTime(); got != 10*time.Millisecond {
		t.Errorf("aged op queue time = %v, want exactly 10ms", got)
	}
}

// TestExactQueueDelayMetrics pins the op-stamp math on a virtual clock:
// with the worker parked, a queued op's delay is exactly the virtual time
// advanced while it waited, and the per-class accumulator matches.
func TestExactQueueDelayMetrics(t *testing.T) {
	g := newGateTier()
	clk := clock.NewVirtual()
	e := New(g, Config{Workers: 1, QueueDepth: 8, Clock: clk})
	defer e.Close()

	blocker, err := e.SubmitWriteClass(DemandFetch, "blocker", []byte{0})
	if err != nil {
		t.Fatal(err)
	}
	for !workerParked(e) {
		time.Sleep(time.Millisecond)
	}
	op, err := e.SubmitWriteClass(Flush, "queued", []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Millisecond)
	close(g.gate)
	_ = blocker.Wait()
	if err := op.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := op.QueueTime(); got != 5*time.Millisecond {
		t.Errorf("QueueTime = %v, want exactly 5ms", got)
	}
	if got := op.TransferTime(); got != 0 {
		t.Errorf("TransferTime = %v, want exactly 0 (no virtual time passed in transfer)", got)
	}
	// The blocker spent the same 5ms inside its transfer (the advance
	// happened while it was gated mid-execution) and zero time queued.
	if got := blocker.QueueTime(); got != 0 {
		t.Errorf("blocker QueueTime = %v, want 0", got)
	}
	if got := blocker.TransferTime(); got != 5*time.Millisecond {
		t.Errorf("blocker TransferTime = %v, want exactly 5ms", got)
	}
	if m := e.ClassMetrics(Flush); m.QueueDelay != 5*time.Millisecond || m.Transfer != 0 {
		t.Errorf("flush class delay/transfer = %v/%v, want 5ms/0", m.QueueDelay, m.Transfer)
	}
}

func TestPromoteRaisesQueuedOp(t *testing.T) {
	g := newGateTier()
	e := New(g, Config{Workers: 1, QueueDepth: 8, AgingThreshold: -1})
	defer e.Close()

	blocker, err := e.SubmitWriteClass(DemandFetch, "blocker", []byte{0})
	if err != nil {
		t.Fatal(err)
	}
	for !workerParked(e) {
		time.Sleep(time.Millisecond)
	}
	pre, err := e.SubmitReadClass(Prefetch, "blocker", make([]byte, 1))
	if err != nil {
		t.Fatal(err)
	}
	fl, err := e.SubmitWriteClass(Flush, "flush", []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if pre.Class() != Prefetch {
		t.Fatalf("class before promote = %v", pre.Class())
	}
	e.Promote(pre, DemandFetch)
	if pre.Class() != DemandFetch {
		t.Fatalf("class after promote = %v", pre.Class())
	}
	// Demote attempts are ignored.
	e.Promote(pre, Migration)
	if pre.Class() != DemandFetch {
		t.Fatalf("demote changed class to %v", pre.Class())
	}
	close(g.gate)
	_ = blocker.Wait()
	_ = pre.Wait()
	_ = fl.Wait()
	order := g.executed()
	if order[1] != "blocker" { // the promoted read (key "blocker") runs before the flush
		t.Fatalf("promoted op not served first: %v", order)
	}
	// blocker + the promoted read: the promoted op is accounted under the
	// class it was dispatched at, not the class it was submitted at.
	if m := e.ClassMetrics(DemandFetch); m.Ops != 2 {
		t.Errorf("promoted op accounted under wrong class: demand ops = %d, want 2", m.Ops)
	}
}

func TestCloseDrainsAllClasses(t *testing.T) {
	g := newGateTier()
	e := New(g, Config{Workers: 1, QueueDepth: 8})

	blocker, err := e.SubmitWriteClass(DemandFetch, "blocker", []byte{0})
	if err != nil {
		t.Fatal(err)
	}
	for !workerParked(e) {
		time.Sleep(time.Millisecond)
	}
	var ops []*Op
	for _, c := range Classes() {
		op, err := e.SubmitWriteClass(c, "k-"+c.String(), []byte{1})
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	close(g.gate)
	e.Close()
	if err := blocker.Err(); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		select {
		case <-op.Done():
			if op.Err() != nil {
				t.Errorf("op %s failed: %v", op.Key, op.Err())
			}
		default:
			t.Fatalf("op %s (class %v) not complete after Close", op.Key, op.Class())
		}
	}
	if _, err := e.SubmitWriteClass(Checkpoint, "late", []byte{1}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("want ErrEngineClosed, got %v", err)
	}
}

func TestPerClassQueueBounds(t *testing.T) {
	g := newGateTier()
	e := New(g, Config{Workers: 1, QueueDepth: 2, AgingThreshold: -1})
	defer e.Close()

	blocker, err := e.SubmitWriteClass(Checkpoint, "blocker", []byte{0})
	if err != nil {
		t.Fatal(err)
	}
	for !workerParked(e) {
		time.Sleep(time.Millisecond)
	}
	// Fill the Checkpoint queue to its bound...
	var ckpt []*Op
	for i := 0; i < 2; i++ {
		op, err := e.SubmitWriteClass(Checkpoint, fmt.Sprintf("ckpt-%d", i), []byte{1})
		if err != nil {
			t.Fatal(err)
		}
		ckpt = append(ckpt, op)
	}
	// ...then verify a DemandFetch submission is NOT blocked by it: the
	// whole point of per-class bounds is that a saturated checkpoint
	// stream cannot head-of-line-block the critical path at admission.
	submitted := make(chan *Op, 1)
	go func() {
		op, err := e.SubmitWriteClass(DemandFetch, "demand", []byte{1})
		if err != nil {
			t.Error(err)
		}
		submitted <- op
	}()
	var demand *Op
	select {
	case demand = <-submitted:
	case <-time.After(2 * time.Second):
		t.Fatal("DemandFetch Submit blocked behind a full Checkpoint queue")
	}
	close(g.gate)
	_ = blocker.Wait()
	_ = demand.Wait()
	for _, op := range ckpt {
		_ = op.Wait()
	}
}

func TestDeleteOp(t *testing.T) {
	e := New(storage.NewMemTier("m"), Config{})
	defer e.Close()
	if err := e.WriteSync("k", []byte{1}); err != nil {
		t.Fatal(err)
	}
	op, err := e.SubmitDelete(Migration, "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := e.ReadSync("k", make([]byte, 1)); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("object survived delete: %v", err)
	}
	// Deleting a missing key is not an error (Tier contract).
	op, err = e.SubmitDelete(Migration, "missing")
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestClassMetricsAccumulate(t *testing.T) {
	e := New(storage.NewMemTier("m"), Config{Workers: 1})
	defer e.Close()
	for i := 0; i < 3; i++ {
		op, err := e.SubmitWriteClass(Flush, fmt.Sprintf("k%d", i), make([]byte, 100))
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	op, err := e.SubmitReadClass(Checkpoint, "k0", make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Wait(); err != nil {
		t.Fatal(err)
	}
	fm := e.ClassMetrics(Flush)
	if fm.Ops != 3 || fm.Bytes != 300 {
		t.Errorf("flush metrics = %+v", fm)
	}
	cm := e.ClassMetrics(Checkpoint)
	if cm.Ops != 1 || cm.Bytes != 100 {
		t.Errorf("checkpoint metrics = %+v", cm)
	}
	if dm := e.ClassMetrics(DemandFetch); dm.Ops != 0 {
		t.Errorf("demand metrics = %+v", dm)
	}
	per := e.PerClassMetrics()
	if per[Flush] != fm || per[Checkpoint] != cm {
		t.Error("PerClassMetrics disagrees with ClassMetrics")
	}
	// A failed op is accounted as Failed, not Ops.
	rop, err := e.SubmitReadClass(GradRead, "missing", make([]byte, 4))
	if err != nil {
		t.Fatal(err)
	}
	_ = rop.Wait()
	if gm := e.ClassMetrics(GradRead); gm.Ops != 0 || gm.Failed != 1 {
		t.Errorf("failed-op metrics = %+v", gm)
	}
}

func TestConcurrentMixedClassSubmitters(t *testing.T) {
	// Race coverage: many goroutines submitting different classes, with
	// promotes in flight, against several workers.
	e := New(storage.NewMemTier("m"), Config{Workers: 4, QueueDepth: 8})
	defer e.Close()
	var wg sync.WaitGroup
	classes := Classes()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				c := classes[(w+i)%len(classes)]
				key := fmt.Sprintf("w%d-%d", w, i)
				op, err := e.SubmitWriteClass(c, key, []byte{byte(w), byte(i)})
				if err != nil {
					t.Error(err)
					return
				}
				e.Promote(op, DemandFetch)
				if err := op.Wait(); err != nil {
					t.Error(err)
					return
				}
				dst := make([]byte, 2)
				if err := e.ReadSync(key, dst); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if m := e.Metrics(); m.OpsDone != 480 {
		t.Errorf("OpsDone = %d, want 480", m.OpsDone)
	}
}

func BenchmarkAsyncWriteThroughput(b *testing.B) {
	e := New(storage.NewMemTier("m"), Config{Workers: 4, QueueDepth: 128})
	defer e.Close()
	buf := make([]byte, 64*1024)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	ops := make([]*Op, 0, 128)
	for i := 0; i < b.N; i++ {
		op, err := e.SubmitWriteClass(Flush, fmt.Sprintf("k%d", i%256), buf)
		if err != nil {
			b.Fatal(err)
		}
		ops = append(ops, op)
		if len(ops) == 128 {
			for _, o := range ops {
				if err := o.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			ops = ops[:0]
		}
	}
	for _, o := range ops {
		_ = o.Wait()
	}
}

// TestOpWireBytes pins the wire-byte contract: over a plain tier an op's
// wire size equals its raw size; over a codec-wrapped tier it is the
// encoded size the decorator recorded, and both engine- and class-level
// metrics accumulate it.
func TestOpWireBytes(t *testing.T) {
	// Compressible FP32-plane payload (constant words).
	payload := bytes.Repeat([]byte{0x3f, 0x80, 0x00, 0x00}, 16_384)

	plain := New(storage.NewMemTier("plain"), Config{Workers: 1})
	defer plain.Close()
	op, err := plain.SubmitWriteClass(Flush, "k", payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Wait(); err != nil {
		t.Fatal(err)
	}
	if op.WireBytes() != int64(len(payload)) {
		t.Fatalf("plain tier wire bytes %d, want raw %d", op.WireBytes(), len(payload))
	}

	ct, err := tiercodec.New(storage.NewMemTier("enc"), tiercodec.Spec{Compression: "flate", Integrity: true})
	if err != nil {
		t.Fatal(err)
	}
	enc := New(ct, Config{Workers: 1})
	defer enc.Close()
	wop, err := enc.SubmitWriteClass(Flush, "k", payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := wop.Wait(); err != nil {
		t.Fatal(err)
	}
	if wop.WireBytes() <= 0 || wop.WireBytes() >= int64(len(payload)) {
		t.Fatalf("codec tier write wire bytes %d, want in (0, %d)", wop.WireBytes(), len(payload))
	}
	dst := make([]byte, len(payload))
	rop, err := enc.SubmitReadClass(DemandFetch, "k", dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := rop.Wait(); err != nil {
		t.Fatal(err)
	}
	if rop.WireBytes() != wop.WireBytes() {
		t.Fatalf("read wire bytes %d != written %d", rop.WireBytes(), wop.WireBytes())
	}
	m := enc.Metrics()
	if m.WireBytesWritten != wop.WireBytes() || m.WireBytesRead != rop.WireBytes() {
		t.Fatalf("engine wire metrics %+v do not match ops (%d/%d)", m, wop.WireBytes(), rop.WireBytes())
	}
	if cm := enc.ClassMetrics(Flush); cm.WireBytes != wop.WireBytes() || cm.Bytes != int64(len(payload)) {
		t.Fatalf("flush class metrics %+v", cm)
	}
}
