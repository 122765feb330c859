package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"github.com/datastates/mlpoffload"
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it (the smallest sample when there are fewer than eleven), and
// which percentile that is.
func tail(xs []float64) (v, pct float64) {
	s := slices.Sorted(slices.Values(xs))
	i := max(len(s)-11, 0)
	return s[i], 100 * float64(i+1) / float64(len(s))
}

func (r *runner) endToEnd() map[string]value {
	var params int64
	upd := make([]float64, len(r.its))
	for i, it := range r.its {
		params += it.ParamsUpdated
		upd[i] = it.Phases.Update
	}
	tailV, _ := tail(r.walls)
	return map[string]value{
		"iter_s_p50":          {median(r.walls), "s"},
		"iter_s_tail":         {tailV, "s"},
		"update_s_p50":        {median(upd), "s"},
		"train_mparams_per_s": {float64(params) / r.window / 1e6, "Mparams/s"},
		"ckpt_stall_s_p50":    {median(r.stalls), "s"},
		"restore_s":           {median(r.restores), "s"},
		"setup_s":             {median(r.setup), "s"},
		"peak_rss_mb":         {r.rssMiB, "MiB"},
	}
}

var (
	ioClasses  = []string{"demand-fetch", "grad-read", "prefetch", "flush", "migration"}
	allTiers   = []string{"nvme", "pfs", "ckpt"}
	trainTiers = []string{"nvme", "pfs"}
)

// layerSums adds up the spans of one decorator layer on one tier
// ("storage.nvme", ...) over a set of engine calls.
type layerSums struct {
	readOps, readBytes, readS    float64
	writeOps, writeBytes, writeS float64
	vecOps, copyOps              float64
	readSelf, writeSelf, allSelf float64
}

// spanSums aggregates the recorded spans of the engine calls in calls:
// per-layer sums and the gradient callback's total time.
func (r *runner) spanSums(calls map[int64]bool) (map[string]*layerSums, float64) {
	spans := r.tr.spans
	child := map[int64]float64{}
	for _, s := range spans {
		child[s.Parent] += s.dur()
	}
	layers := map[string]*layerSums{}
	var grad float64
	for _, s := range spans {
		if !calls[s.Call] {
			continue
		}
		if s.Name == "model.grad" {
			grad += s.dur()
			continue
		}
		i := strings.LastIndexByte(s.Name, '.')
		layer, op := s.Name[:i], s.Name[i+1:]
		if strings.HasPrefix(layer, "engine") {
			continue
		}
		l := layers[layer]
		if l == nil {
			l = &layerSums{}
			layers[layer] = l
		}
		self := s.dur() - child[s.ID]
		l.allSelf += self
		switch op {
		case "read", "readobject", "readvec":
			l.readOps += float64(s.Objs)
			l.readBytes += float64(s.Bytes)
			l.readS += s.dur()
			l.readSelf += self
			if op == "readvec" {
				l.vecOps++
			}
		case "write":
			l.writeOps++
			l.writeBytes += float64(s.Bytes)
			l.writeS += s.dur()
			l.writeSelf += self
		case "copy":
			l.copyOps++
		}
	}
	return layers, grad
}

// perLayer derives the per-layer metrics from the traced run. Values are
// per measured iteration, except checkpoint.*, which are per Checkpoint
// call. Times are sums over operations, which overlap, so a layer's time
// can exceed the iteration's. A metric of a layer the workload does not
// have reads 0.
func (r *runner) perLayer() map[string]value {
	out := map[string]value{}
	put := func(name, unit string, v float64) { out[name] = value{v, unit} }
	n := float64(len(r.its))
	var sum mlpoffload.Iteration
	for _, it := range r.its {
		sum.Merge(it)
	}
	layers, grad := r.spanSums(r.measured)
	get := func(layer string) *layerSums {
		if l := layers[layer]; l != nil {
			return l
		}
		return &layerSums{}
	}

	ph := sum.Phases
	put("engine.fwd_s", "s", ph.Forward/n)
	put("engine.bwd_s", "s", ph.Backward/n)
	put("engine.upd_s", "s", ph.Update/n)
	put("engine.bwd_self_s", "s", (ph.Backward-grad)/n)
	put("engine.upd_wait_s", "s", (ph.Update-sum.UpdateComputeTime)/n)
	put("engine.integrity_retries", "count", float64(r.endCtr.retries-r.startCtr.retries)/n)
	put("model.grad_s", "s", grad/n)
	put("optim.adam_s", "s", sum.UpdateComputeTime/n)
	put("optim.adam_mparams_per_s", "Mparams/s", ratio(float64(sum.ParamsUpdated)/1e6, sum.UpdateComputeTime))

	put("hostcache.hits", "count", float64(sum.CacheHits)/n)
	put("hostcache.misses", "count", float64(sum.CacheMisses)/n)
	put("hostcache.hit_ratio", "ratio", ratio(float64(sum.CacheHits), float64(sum.CacheHits+sum.CacheMisses)))

	for _, c := range ioClasses {
		io := sum.ClassIO[c]
		put("aio."+c+".ops", "count", float64(io.Ops)/n)
		put("aio."+c+".bytes", "B", io.Bytes/n)
		put("aio."+c+".queue_s", "s", io.QueueDelay/n)
		put("aio."+c+".transfer_s", "s", io.Transfer/n)
	}

	for _, t := range allTiers {
		st, codec := get("storage."+t), get("tiercodec."+t)
		p := "storage." + t + "."
		put(p+"read_ops", "count", st.readOps/n)
		put(p+"read_bytes", "B", st.readBytes/n)
		put(p+"read_s", "s", st.readS/n)
		put(p+"write_ops", "count", st.writeOps/n)
		put(p+"write_bytes", "B", st.writeBytes/n)
		put(p+"write_s", "s", st.writeS/n)
		put(p+"vec_ops", "count", st.vecOps/n)
		put(p+"copy_ops", "count", st.copyOps/n)
		p = "tiercodec." + t + "."
		put(p+"encode_s", "s", codec.writeSelf/n)
		put(p+"decode_s", "s", codec.readSelf/n)
		raw := codec.readBytes + codec.writeBytes
		if raw == 0 {
			put(p+"ratio", "ratio", 0)
		} else {
			put(p+"ratio", "ratio", ratio(raw, st.readBytes+st.writeBytes))
		}
	}
	for _, t := range trainTiers {
		put("ratelimit."+t+".wait_s", "s", get("ratelimit."+t).allSelf/n)
		put("tierlock."+t+".wait_s", "s", (r.endCtr.lockWait[t]-r.startCtr.lockWait[t])/n)
		put("tierlock."+t+".grants", "count", float64(r.endCtr.lockGrant[t]-r.startCtr.lockGrant[t])/n)
	}

	changes, misplaced, prev := 0, 0, r.startCtr.Ratio
	for _, p := range r.traj {
		if p.Ratio != prev {
			changes++
		}
		prev = p.Ratio
		misplaced += p.Misplaced
	}
	put("placement.plan_changes", "count", float64(changes)/n)
	put("placement.migration_moves", "count", float64(r.endCtr.Moves-r.startCtr.Moves)/n)
	put("placement.migration_bytes", "B", float64(r.endCtr.Bytes-r.startCtr.Bytes)/n)
	put("placement.migration_abandoned", "count", float64(r.endCtr.Abandoned-r.startCtr.Abandoned)/n)
	put("placement.misplaced", "count", float64(misplaced)/n)

	// The writer's view of the checkpoint tier: above the codec if any.
	ck, _ := r.spanSums(r.ckptCalls)
	top := ck["storage.ckpt"]
	if r.w.codec {
		top = ck["tiercodec.ckpt"]
	}
	if top == nil {
		top = &layerSums{}
	}
	k := float64(len(r.ckptCalls))
	put("checkpoint.write_s", "s", top.writeS/k)
	put("checkpoint.bytes", "B", top.writeBytes/k)
	var saved float64
	for _, s := range r.savings {
		saved += s
	}
	put("checkpoint.prestage_savings", "ratio", saved/k)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report returns the report-only lines printed before the result.
func (r *runner) report() []string {
	_, pct := tail(r.walls)
	traced := 0
	if r.tr != nil {
		traced = 1
	}
	lines := []string{
		fmt.Sprintf("# workload=%s seed=%d trace=%d iterations=%d (warmup %d, measured %d in %.2f s) checkpoints=%d",
			r.w.name, r.seed, traced, r.iters, warmupIters, len(r.walls), r.window, len(r.savings)),
		fmt.Sprintf("# iter_s_tail is p%.0f of %d samples; iter_s samples %.3f", pct, len(r.walls), r.walls),
		fmt.Sprintf("# ckpt_stall_s samples %.3f; restore_s samples %.3f; setup_s samples %.3f", r.stalls, r.restores, r.setup),
		fmt.Sprintf("# failed_ratio=%g (%d failed of %d engine calls and checks)", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted),
		fmt.Sprintf("# digests live=%s restored=%s reference=%s", r.digests["live"], r.digests["restored"], r.digests["reference"]),
	}
	for _, p := range r.traj {
		lines = append(lines, fmt.Sprintf("# plan iter=%d %s migration_moves=%d migration_bytes=%d misplaced=%d",
			p.Iter, p.Ratio, p.Moves, p.Bytes, p.Misplaced))
	}
	return append(lines, r.crossRun(traced)...)
}

// crossRun stores this run's iter_s_p50 and reports, from earlier runs
// with the same seed, the paper's headline ratio (zero3-io over mlp-io)
// and the tracing overhead. Neither is gated.
func (r *runner) crossRun(traced int) []string {
	dir := filepath.Join(r.dir, "results")
	path := func(w string, t int) string { return filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d.json", w, r.seed, t)) }
	load := func(w string, t int) (float64, bool) {
		b, err := os.ReadFile(path(w, t))
		var v float64
		return v, err == nil && json.Unmarshal(b, &v) == nil
	}
	p50 := median(r.walls)
	if err := os.MkdirAll(dir, 0o755); err == nil {
		b, _ := json.Marshal(p50)
		_ = os.WriteFile(path(r.w.name, traced), b, 0o644) // report-only; a lost file loses a line
	}
	var lines []string
	if traced == 0 {
		z, zok := load("zero3-io", 0)
		m, mok := load("mlp-io", 0)
		if zok && mok && (r.w.name == "zero3-io" || r.w.name == "mlp-io") {
			lines = append(lines, fmt.Sprintf("# speedup zero3-io/mlp-io iter_s_p50 = %.3f (%.4f s / %.4f s; the paper reports 2.5 at paper scale)", z/m, z, m))
		}
	}
	if u, ok := load(r.w.name, 0); ok {
		if t, ok := load(r.w.name, 1); ok {
			lines = append(lines, fmt.Sprintf("# tracing overhead on %s: traced - untraced iter_s_p50 = %+.4f s (%.4f s - %.4f s)", r.w.name, t-u, t, u))
		}
	}
	return lines
}

// traceExtra are the records written beside the spans.
func (r *runner) traceExtra() map[string]any {
	return map[string]any{
		"workload":   r.w.name,
		"seed":       r.seed,
		"placement":  r.traj,
		"tier_stats": r.tierStats,
		"digests":    r.digests,
	}
}
