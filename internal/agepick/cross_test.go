package agepick_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/datastates/mlpoffload/internal/aio"
	"github.com/datastates/mlpoffload/internal/clock"
	"github.com/datastates/mlpoffload/internal/des"
	"github.com/datastates/mlpoffload/internal/storage"
)

// The cross-scheduler tests freeze one queue state and drain it through
// both the real aio engine (on a manual virtual clock) and the DES
// scheduler. A single worker is parked on a blocker op while the ops are
// submitted at their stamps; time then jumps to the drain instant and the
// blocker is released. Service takes no time in either scheduler, so
// every pick sees the same "now" and the served order is purely the pick
// policy's.
//
// Times are integer ticks: a millisecond on the aio clock and 2^-10 s in
// the simulator, so the DES float arithmetic is exact and the aging
// boundary means the same thing in both.

const desTick = 1.0 / 1024

type queuedOp struct {
	class int
	at    int // submit tick, >= 1 (tick 0 is the blocker's)
	name  string
}

type scenario struct {
	ops   []queuedOp // in submit order (ticks non-decreasing)
	aging int        // threshold in ticks; 0 disables aging
	drain int        // tick at which the blocker releases, > every op's tick
}

// gateTier holds the blocker's write until release and records the order
// in which the other writes execute.
type gateTier struct {
	storage.Tier
	release chan struct{}
	mu      sync.Mutex
	order   []string
}

func (g *gateTier) Write(ctx context.Context, key string, src []byte) error {
	if key == "blocker" {
		<-g.release
	} else {
		g.mu.Lock()
		g.order = append(g.order, key)
		g.mu.Unlock()
	}
	return g.Tier.Write(ctx, key, src)
}

func aioOrder(t *testing.T, sc scenario) []string {
	t.Helper()
	g := &gateTier{Tier: storage.NewMemTier("g"), release: make(chan struct{})}
	clk := clock.NewVirtual()
	aging := time.Duration(sc.aging) * time.Millisecond
	if sc.aging == 0 {
		aging = -1 // strict priority
	}
	e := aio.New(g, aio.Config{Workers: 1, AgingThreshold: aging, Clock: clk})
	defer e.Close()

	blocker, err := e.SubmitWriteClass(aio.DemandFetch, "blocker", []byte{0})
	if err != nil {
		t.Fatal(err)
	}
	// The worker has taken the blocker once every class queue is empty.
	for e.QueuedByClass() != [aio.NumClasses]int{} {
		runtime.Gosched()
	}
	start := clk.Now()
	ops := make([]*aio.Op, 0, len(sc.ops))
	for _, o := range sc.ops {
		clk.Advance(start.Add(time.Duration(o.at) * time.Millisecond).Sub(clk.Now()))
		op, err := e.SubmitWriteClass(aio.Class(o.class), o.name, []byte{1})
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	clk.Advance(start.Add(time.Duration(sc.drain) * time.Millisecond).Sub(clk.Now()))
	close(g.release)
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := op.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	return g.order
}

func desOrder(t *testing.T, sc scenario) []string {
	t.Helper()
	classes := make([]string, aio.NumClasses)
	for c := range classes {
		classes[c] = aio.Class(c).String()
	}
	sim := des.New()
	sched := sim.NewSched("g", des.SchedConfig{Workers: 1, Classes: classes, Aging: float64(sc.aging) * desTick})
	var order []string
	sim.Spawn("client", func(p *des.Proc) {
		drain := float64(sc.drain) * desTick
		blocker := sched.Submit(0, "blocker", 1, func(p *des.Proc) { p.Sleep(drain - p.Now()) })
		ops := []*des.SchedOp{blocker}
		for _, o := range sc.ops {
			p.Sleep(float64(o.at)*desTick - p.Now())
			name := o.name
			ops = append(ops, sched.Submit(o.class, name, 1, func(*des.Proc) { order = append(order, name) }))
		}
		for _, op := range ops {
			op.Wait(p)
		}
		sched.Close()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return order
}

// TestAgedTieSameOrder: two aged heads with equal queued times in
// different classes. Both schedulers must serve the more urgent class
// first, even though the less urgent op was submitted first.
func TestAgedTieSameOrder(t *testing.T) {
	sc := scenario{
		ops: []queuedOp{
			{class: int(aio.Migration), at: 1, name: "lo"},
			{class: int(aio.DemandFetch), at: 1, name: "hi"},
		},
		aging: 4,
		drain: 6,
	}
	want := []string{"hi", "lo"}
	if got := aioOrder(t, sc); !reflect.DeepEqual(got, want) {
		t.Errorf("aio served %v, want %v", got, want)
	}
	if got := desOrder(t, sc); !reflect.DeepEqual(got, want) {
		t.Errorf("des served %v, want %v", got, want)
	}
}

// TestSchedulersAgreeOnRandomStates: random queue states — class mixes,
// stamp collisions, ages on both sides of the threshold, aging on and off
// — drain in the same order through aio and des.
func TestSchedulersAgreeOnRandomStates(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 150; i++ {
		var sc scenario
		sc.drain = 2 + rng.Intn(12)
		if rng.Intn(4) > 0 {
			sc.aging = 1 + rng.Intn(sc.drain)
		}
		n := 1 + rng.Intn(12)
		for j := 0; j < n; j++ {
			sc.ops = append(sc.ops, queuedOp{
				class: rng.Intn(aio.NumClasses),
				at:    1 + rng.Intn(sc.drain-1),
				name:  fmt.Sprintf("op%02d", j),
			})
		}
		sort.SliceStable(sc.ops, func(a, b int) bool { return sc.ops[a].at < sc.ops[b].at })
		got, want := aioOrder(t, sc), desOrder(t, sc)
		if len(got) != n || !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d %+v:\naio served %v\ndes served %v", i, sc, got, want)
		}
	}
}
