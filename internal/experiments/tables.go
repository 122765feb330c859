package experiments

import (
	"fmt"
	"math"

	"github.com/datastates/mlpoffload/internal/cluster"
	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/model"
)

// Tab1 prints the testbed configurations (Table 1).
func Tab1(Options) (string, error) {
	t := metrics.NewTable("Table 1: Testbed configurations",
		"feature", "Testbed-1", "Testbed-2")
	t1, t2 := cluster.Testbed1(), cluster.Testbed2()
	gb := func(v float64) string { return fmt.Sprintf("%.1f", v/cluster.GB) }
	t.AddRow("GPUs",
		fmt.Sprintf("%dx %s", t1.GPUsPerNode, t1.GPU.Name),
		fmt.Sprintf("%dx %s", t2.GPUsPerNode, t2.GPU.Name))
	t.AddRow("Pinned D<->H B/W (GB/s)", gb(t1.GPU.PinnedBandwidth), gb(t2.GPU.PinnedBandwidth))
	t.AddRow("CPU cores", fmt.Sprintf("%d", t1.CPUCores), fmt.Sprintf("%d", t2.CPUCores))
	t.AddRow("Host memory (GB)",
		fmt.Sprintf("%d", t1.HostMemBytes/cluster.GiB),
		fmt.Sprintf("%d", t2.HostMemBytes/cluster.GiB))
	t.AddRow("NVMe read|write (GB/s)",
		gb(t1.NVMe.ReadBW)+" | "+gb(t1.NVMe.WriteBW),
		gb(t2.NVMe.ReadBW)+" | "+gb(t2.NVMe.WriteBW))
	t.AddRow("PFS", "VAST FS", "Lustre FS")
	t.AddRow("PFS read|write (GB/s)",
		gb(t1.PFS.ReadBW)+" | "+gb(t1.PFS.WriteBW),
		gb(t2.PFS.ReadBW)+" | "+gb(t2.PFS.WriteBW))
	t.AddNote("sustained GPU TFLOPS calibrated so 40B forward ≈ 0.6s (Testbed-1 anchor)")
	return t.Render(), nil
}

// Tab2 prints the model configurations (Table 2) with derived parameter
// counts from the architecture formula.
func Tab2(Options) (string, error) {
	t := metrics.NewTable("Table 2: Models used for evaluations",
		"model", "layers", "hidden", "heads", "params(B)", "derived(B)", "optim state")
	for _, c := range model.Table2() {
		derived := c
		derived.NominalParams = 0
		t.AddRow(c.Name,
			fmt.Sprintf("%d", c.Layers),
			fmt.Sprintf("%d", c.Hidden),
			fmt.Sprintf("%d", c.Heads),
			fmt.Sprintf("%.0f", float64(c.Params())/1e9),
			fmt.Sprintf("%.1f", float64(derived.Params())/1e9),
			metrics.FormatBytes(float64(c.Size().OptimStateBytes)))
	}
	t.AddNote("optimizer state = FP32 params + momentum + variance (12 B/param)")
	return t.Render(), nil
}

// fig1Models is the historical model-size series of Figure 1.
var fig1Models = []struct {
	Name   string
	Year   int
	Params float64 // billions
}{
	{"Transformer", 2017, 0.065},
	{"GPT-1", 2018, 0.117},
	{"Megatron", 2019, 8.3},
	{"T-NLG", 2020, 17},
	{"GPT-3", 2020, 175},
	{"Switch-T", 2021, 1600},
	{"PaLM", 2022, 540},
	{"GPT-4 (est.)", 2023, 1800},
}

// fig1GPUs is the GPU memory series of Figure 1.
var fig1GPUs = []struct {
	Name  string
	Year  int
	MemGB int
}{
	{"V100", 2018, 32},
	{"A100", 2020, 40},
	{"A100-80", 2021, 80},
	{"H100", 2022, 80},
	{"H100e", 2023, 96},
	{"H200", 2024, 141},
}

// Fig1 reproduces the motivation figure: transformer sizes grow ~450x per
// 2 years while GPU memory grows ~2x per 2 years.
func Fig1(Options) (string, error) {
	t := metrics.NewTable("Figure 1: Model vs GPU memory growth",
		"year", "model", "params(B)", "gpu", "mem(GB)")
	for i := 0; i < len(fig1Models) || i < len(fig1GPUs); i++ {
		var y, m, p, g, mem string
		if i < len(fig1Models) {
			y = fmt.Sprintf("%d", fig1Models[i].Year)
			m = fig1Models[i].Name
			p = fmt.Sprintf("%.3g", fig1Models[i].Params)
		}
		if i < len(fig1GPUs) {
			if y == "" {
				y = fmt.Sprintf("%d", fig1GPUs[i].Year)
			}
			g = fig1GPUs[i].Name
			mem = fmt.Sprintf("%d", fig1GPUs[i].MemGB)
		}
		t.AddRow(y, m, p, g, mem)
	}
	// Growth rates via log-linear fit endpoints.
	mGrowth := doubling(fig1Models[0].Params, fig1Models[len(fig1Models)-1].Params,
		fig1Models[0].Year, fig1Models[len(fig1Models)-1].Year)
	gGrowth := doubling(float64(fig1GPUs[0].MemGB), float64(fig1GPUs[len(fig1GPUs)-1].MemGB),
		fig1GPUs[0].Year, fig1GPUs[len(fig1GPUs)-1].Year)
	t.AddNote("model growth ≈ %.0fx / 2 years; GPU memory growth ≈ %.1fx / 2 years (paper: 450x vs 2x)", mGrowth, gGrowth)
	return t.Render(), nil
}

// doubling returns the growth factor per 2 years between two points.
func doubling(v0, v1 float64, y0, y1 int) float64 {
	years := float64(y1 - y0)
	if years <= 0 || v0 <= 0 {
		return 0
	}
	perYear := math.Pow(v1/v0, 1/years)
	return perYear * perYear
}
