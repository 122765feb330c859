package experiments

import (
	"fmt"

	"github.com/datastates/mlpoffload/internal/cluster"
	"github.com/datastates/mlpoffload/internal/des"
	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/model"
	"github.com/datastates/mlpoffload/internal/simrun"
)

// Fig3 reproduces the update-phase I/O fraction characterization: the 20B
// model whose optimizer state fits in host memory spends ~100% of the
// update in compute; SSD-offloaded models spend ~99% in disk I/O.
func Fig3(o Options) (string, error) {
	o = o.normalize()
	t := metrics.NewTable("Figure 3: fraction of update time in disk I/O (Testbed-1, DeepSpeed ZeRO-3)",
		"model", "update(s)", "disk I/O %", "compute %")
	type c struct {
		name    string
		mdl     model.Config
		cpuOnly bool
	}
	cases := []c{{"20B CPU", model.Baseline20B(), true}}
	for _, name := range []string{"20B", "40B", "70B", "120B"} {
		m, err := model.ByName(name)
		if err != nil {
			return "", err
		}
		cases = append(cases, c{name, m, false})
	}
	for _, cs := range cases {
		r, err := simrun.Run(simrun.Config{
			Testbed: cluster.Testbed1(), Model: cs.mdl,
			Approach: simrun.DeepSpeedZeRO3(), CPUOnly: cs.cpuOnly,
			Iterations: o.Iterations, Warmup: o.Warmup,
		})
		if err != nil {
			return "", err
		}
		frac := simrun.DiskIOFraction(r.Mean, cluster.Testbed1().GPUsPerNode)
		t.AddRow(cs.name,
			fmt.Sprintf("%.1f", r.Mean.Phases.Update),
			fmt.Sprintf("%.1f", frac*100),
			fmt.Sprintf("%.1f", (1-frac)*100))
	}
	t.AddNote("paper: 20B CPU 2.3s/0%%; offloaded models 66.5-479.1s at 99%% disk I/O")
	return t.Render(), nil
}

// Fig4 reproduces the raw-bandwidth microbenchmark: aggregate throughput
// stays roughly flat as concurrent processes grow while per-process
// latency worsens, for both the node-local NVMe and the remote PFS.
func Fig4(Options) (string, error) {
	tb := cluster.Testbed1()
	t := metrics.NewTable("Figure 4: I/O bandwidth of SSD (local) vs PFS (remote) under concurrency (Testbed-1)",
		"device", "procs", "read thru (GB/s)", "write thru (GB/s)", "read lat (s/GB)", "write lat (s/GB)")
	for _, dev := range []cluster.StorageTierSpec{tb.NVMe, tb.PFS} {
		for _, procs := range []int{1, 2, 4} {
			rbw := measureLinkBW(dev.ReadBW, dev.InterferenceAlpha, procs)
			wbw := measureLinkBW(dev.WriteBW, dev.InterferenceAlpha, procs)
			t.AddRow(dev.Name,
				fmt.Sprintf("%d", procs),
				fmt.Sprintf("%.2f", rbw/1e9),
				fmt.Sprintf("%.2f", wbw/1e9),
				fmt.Sprintf("%.3f", 1e9*float64(procs)/rbw),
				fmt.Sprintf("%.3f", 1e9*float64(procs)/wbw))
		}
	}
	t.AddNote("aggregate ~flat, per-process latency grows superlinearly (contention)")
	return t.Render(), nil
}

// measureLinkBW runs `procs` concurrent streams over a contended link and
// returns the measured aggregate bandwidth.
func measureLinkBW(peak, alpha float64, procs int) float64 {
	sim := des.New()
	link := sim.NewLink("dev", peak, des.CappedInterference(alpha, procs))
	const perProc = 64e9 // 64 GB per stream
	for i := 0; i < procs; i++ {
		sim.Spawn(fmt.Sprintf("p%d", i), func(p *des.Proc) {
			for k := 0; k < 16; k++ {
				link.Transfer(p, perProc/16)
			}
		})
	}
	if err := sim.Run(); err != nil {
		panic(err)
	}
	return float64(procs) * perProc / sim.Now()
}

// Fig5 reproduces the per-subgroup effective throughput trace of the 40B
// model offloading to node-local NVMe under DeepSpeed ZeRO-3: oscillating
// read/write throughput bottlenecked by the write path.
func Fig5(o Options) (string, error) {
	o = o.normalize()
	m, err := model.ByName("40B")
	if err != nil {
		return "", err
	}
	r, err := simrun.Run(simrun.Config{
		Testbed: cluster.Testbed1(), Model: m,
		Approach:   simrun.DeepSpeedZeRO3(),
		Iterations: o.Iterations, Warmup: o.Warmup,
		TraceSubgroups: true,
	})
	if err != nil {
		return "", err
	}
	t := metrics.NewTable("Figure 5: effective R/W throughput per subgroup (40B, NVMe, DeepSpeed ZeRO-3)",
		"subgroup", "read (GB/s)", "write (GB/s)")
	var rSum, wSum float64
	var rN, wN int
	for _, pt := range r.Trace {
		if pt.ReadBW > 0 {
			rSum += pt.ReadBW
			rN++
		}
		if pt.WriteBW > 0 {
			wSum += pt.WriteBW
			wN++
		}
	}
	// Print every 8th sample to keep the table readable.
	byPos := map[int]*simrun.SubgroupIO{}
	for i := range r.Trace {
		pt := r.Trace[i]
		e := byPos[pt.Pos]
		if e == nil {
			cp := pt
			byPos[pt.Pos] = &cp
			continue
		}
		if pt.ReadBW > 0 {
			e.ReadBW = pt.ReadBW
		}
		if pt.WriteBW > 0 {
			e.WriteBW = pt.WriteBW
		}
	}
	for pos := 0; pos < 1000; pos += 8 {
		pt, ok := byPos[pos]
		if !ok {
			continue
		}
		t.AddRow(fmt.Sprintf("%d", pos),
			fmt.Sprintf("%.2f", pt.ReadBW/1e9),
			fmt.Sprintf("%.2f", pt.WriteBW/1e9))
	}
	if rN > 0 && wN > 0 {
		t.AddNote("mean read %.2f GB/s, mean write %.2f GB/s (paper: x̄ read 3.68, x̄ write 1.44)",
			rSum/float64(rN)/1e9, wSum/float64(wN)/1e9)
	}
	return t.Render(), nil
}
