package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datastates/mlpoffload"
)

// span is one timed operation. Spans nest through Parent: a tier
// operation's parent is the decorator span above it on the same call
// path, or else the engine call in progress (Call), so every span of one
// engine call shares that call's ID.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Call   int64   `json:"call"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Objs   int64   `json:"objs,omitempty"`
	Bytes  int64   `json:"bytes,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: no span is recorded and no decorator is installed, so the
// engine runs exactly the program a user would.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	call  atomic.Int64 // span ID of the latest engine call
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanKey struct{}

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// start opens a span under ctx's span, or under the engine call in
// progress, and returns a ctx that makes it the parent of nested spans.
func (t *tracer) start(ctx context.Context, name string) (context.Context, span) {
	s := span{ID: t.ids.Add(1), Call: t.call.Load(), Name: name, Start: t.now()}
	s.Parent = s.Call
	if p, ok := ctx.Value(spanKey{}).(int64); ok {
		s.Parent = p
	}
	return context.WithValue(ctx, spanKey{}, s.ID), s
}

func (t *tracer) end(s span, objs, bytes int64) {
	s.End, s.Objs, s.Bytes = t.now(), objs, bytes
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// engineCall runs one engine call as a top-level span named
// "engine.<name>" and returns the span's ID. Asynchronous tier work the
// call leaves behind (lazy flushes, migrations) stays attributed to it
// until the next call starts: the loop is closed, so nothing else runs in
// between.
func (t *tracer) engineCall(name string, fn func() error) (int64, error) {
	if t == nil {
		return 0, fn()
	}
	s := span{ID: t.ids.Add(1), Name: "engine." + name, Start: t.now()}
	s.Call = s.ID
	t.call.Store(s.ID)
	err := fn()
	t.end(s, 0, 0)
	return s.ID, err
}

// grad times the benchmark's gradient source, the stand-in for the GPU.
func (t *tracer) grad(fn mlpoffload.BatchGradFn) mlpoffload.BatchGradFn {
	if t == nil {
		return fn
	}
	return func(iter int, p16 []mlpoffload.FP16, out []float32) error {
		_, s := t.start(context.Background(), "model.grad")
		err := fn(iter, p16, out)
		t.end(s, 0, 0)
		return err
	}
}

// write saves every span and the extra records as one JSON document.
func (t *tracer) write(path string, extra map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := map[string]any{"spans": t.spans}
	for k, v := range extra {
		doc[k] = v
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

// Optional Tier capabilities the engine probes for. A decorator that hid
// one would make the engine run other code: codec reads would fall back
// to Size+Read, checkpoint pre-staging to read+write, and fetch
// coalescing to single reads.
type (
	vecReader interface {
		ReadVec(context.Context, []string, [][]byte) error
	}
	objectReader interface {
		ReadObject(context.Context, string) ([]byte, error)
	}
	copier interface {
		Copy(context.Context, string, string) error
	}
	describer interface{ Describe() string }
)

// caps is a set of optional Tier capabilities.
type caps uint8

const (
	capVec caps = 1 << iota
	capObject
	capCopy
	capDescribe
)

func capsOf(t mlpoffload.Tier) caps {
	var c caps
	if _, ok := t.(vecReader); ok {
		c |= capVec
	}
	if _, ok := t.(objectReader); ok {
		c |= capObject
	}
	if _, ok := t.(copier); ok {
		c |= capCopy
	}
	if _, ok := t.(describer); ok {
		c |= capDescribe
	}
	return c
}

// timedTier records a span named "<layer>.<op>" around each operation on
// the tier below it. Name, Keys and Stats pass through the embedded tier.
type timedTier struct {
	mlpoffload.Tier
	tr    *tracer
	layer string // e.g. "storage.nvme", "ratelimit.pfs", "tiercodec.ckpt"
}

func (d *timedTier) Read(ctx context.Context, key string, dst []byte) error {
	ctx, s := d.tr.start(ctx, d.layer+".read")
	err := d.Tier.Read(ctx, key, dst)
	d.tr.end(s, 1, int64(len(dst)))
	return err
}

func (d *timedTier) Write(ctx context.Context, key string, src []byte) error {
	ctx, s := d.tr.start(ctx, d.layer+".write")
	err := d.Tier.Write(ctx, key, src)
	d.tr.end(s, 1, int64(len(src)))
	return err
}

func (d *timedTier) Delete(ctx context.Context, key string) error {
	ctx, s := d.tr.start(ctx, d.layer+".delete")
	err := d.Tier.Delete(ctx, key)
	d.tr.end(s, 1, 0)
	return err
}

func (d *timedTier) Size(ctx context.Context, key string) (int64, error) {
	ctx, s := d.tr.start(ctx, d.layer+".size")
	n, err := d.Tier.Size(ctx, key)
	d.tr.end(s, 1, 0)
	return n, err
}

// The capability carriers forward one optional method each; wrapTimed
// composes exactly the set the inner tier has.
type (
	vecCap      struct{ d *timedTier }
	objectCap   struct{ d *timedTier }
	copyCap     struct{ d *timedTier }
	describeCap struct{ d *timedTier }
)

func (c vecCap) ReadVec(ctx context.Context, keys []string, dsts [][]byte) error {
	ctx, s := c.d.tr.start(ctx, c.d.layer+".readvec")
	err := c.d.Tier.(vecReader).ReadVec(ctx, keys, dsts)
	var n int64
	for _, b := range dsts {
		n += int64(len(b))
	}
	c.d.tr.end(s, int64(len(keys)), n)
	return err
}

func (c objectCap) ReadObject(ctx context.Context, key string) ([]byte, error) {
	ctx, s := c.d.tr.start(ctx, c.d.layer+".readobject")
	b, err := c.d.Tier.(objectReader).ReadObject(ctx, key)
	c.d.tr.end(s, 1, int64(len(b)))
	return b, err
}

// Copy returns the inner tier's error unwrapped, so a delegating tier's
// ErrCopyUnsupported still makes the engine fall back to read+write.
func (c copyCap) Copy(ctx context.Context, src, dst string) error {
	ctx, s := c.d.tr.start(ctx, c.d.layer+".copy")
	err := c.d.Tier.(copier).Copy(ctx, src, dst)
	c.d.tr.end(s, 1, 0)
	return err
}

// Describe keeps the codec visible to checkpoint manifests.
func (c describeCap) Describe() string { return c.d.Tier.(describer).Describe() }

// The capability sets of the tiers this benchmark stacks: MemTier,
// FileTier and ThrottledTier have the first, CodecTier the second.
type (
	timedStore struct {
		*timedTier
		vecCap
		objectCap
		copyCap
	}
	timedCodec struct {
		*timedTier
		objectCap
		copyCap
		describeCap
	}
)

// wrap puts a timing decorator named layer above inner. With tracing off
// it returns inner itself. It refuses a tier whose optional capabilities
// no decorator here forwards exactly.
func (t *tracer) wrap(inner mlpoffload.Tier, layer string) (mlpoffload.Tier, error) {
	if t == nil {
		return inner, nil
	}
	d := &timedTier{Tier: inner, tr: t, layer: layer}
	switch c := capsOf(inner); c {
	case 0:
		return d, nil
	case capVec | capObject | capCopy:
		return timedStore{d, vecCap{d}, objectCap{d}, copyCap{d}}, nil
	case capObject | capCopy | capDescribe:
		return timedCodec{d, objectCap{d}, copyCap{d}, describeCap{d}}, nil
	default:
		return nil, fmt.Errorf("no timing decorator forwards exactly the capabilities %04b of tier %s", c, inner.Name())
	}
}
