package placement

import (
	"math"
	"math/bits"
	"sort"
	"testing"
	"testing/quick"
)

func TestSplitPaperRatio(t *testing.T) {
	// Testbed-1: NVMe min(6.9,5.3)=5.3, PFS min(3.6,3.6)=3.6.
	// Paper reports a ~2:1 NVMe:PFS split (Figure 10).
	tiers := []TierBandwidth{{"nvme", 5.3}, {"pfs", 3.6}}
	counts := Split(400, tiers)
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.3 || ratio > 2.1 {
		t.Errorf("nvme:pfs = %d:%d (%.2f), want ~1.5-2:1", counts[0], counts[1], ratio)
	}
	if counts[0]+counts[1] != 400 {
		t.Errorf("counts sum to %d", counts[0]+counts[1])
	}
}

func TestSplitExactProportions(t *testing.T) {
	tiers := []TierBandwidth{{"a", 20}, {"b", 10}}
	counts := Split(30, tiers)
	if counts[0] != 20 || counts[1] != 10 {
		t.Errorf("counts = %v, want [20 10]", counts)
	}
}

func TestSplitZeroBandwidthTierGetsNothing(t *testing.T) {
	tiers := []TierBandwidth{{"a", 10}, {"dead", 0}, {"b", 10}}
	counts := Split(10, tiers)
	if counts[1] != 0 {
		t.Errorf("dead tier got %d subgroups", counts[1])
	}
	if counts[0]+counts[2] != 10 {
		t.Errorf("counts = %v", counts)
	}
}

func TestSplitSingleTier(t *testing.T) {
	counts := Split(7, []TierBandwidth{{"only", 3.3}})
	if counts[0] != 7 {
		t.Errorf("counts = %v", counts)
	}
}

func TestSplitZeroSubgroups(t *testing.T) {
	counts := Split(0, []TierBandwidth{{"a", 1}})
	if counts[0] != 0 {
		t.Errorf("counts = %v", counts)
	}
}

func TestSplitPanicsNoBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Split(5, []TierBandwidth{{"a", 0}})
}

func TestPropertySplitSumsAndProportionality(t *testing.T) {
	f := func(mSeed uint16, bwSeeds [4]uint16) bool {
		m := int(mSeed % 2000)
		tiers := make([]TierBandwidth, 0, 4)
		total := 0.0
		for i, b := range bwSeeds {
			bw := float64(b%1000) + 1
			total += bw
			tiers = append(tiers, TierBandwidth{Name: string(rune('a' + i)), BW: bw})
		}
		counts := Split(m, tiers)
		sum := 0
		for i, c := range counts {
			sum += c
			// Each count within 1+len(tiers) of the exact proportional share.
			exact := float64(m) * tiers[i].BW / total
			if math.Abs(float64(c)-exact) > float64(len(tiers))+1 {
				return false
			}
		}
		return sum == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNewPlanAssignMatchesCounts(t *testing.T) {
	tiers := []TierBandwidth{{"nvme", 5.3}, {"pfs", 3.6}}
	p := NewPlan(100, tiers)
	got := make([]int, len(tiers))
	for _, ti := range p.Assign {
		got[ti]++
	}
	for i := range got {
		if got[i] != p.Counts[i] {
			t.Errorf("tier %d: assigned %d, counts say %d", i, got[i], p.Counts[i])
		}
	}
}

func TestNewPlanInterleaves(t *testing.T) {
	// With a 2:1 split the assignment should alternate rather than place
	// all of tier 0 first: within any window of 6 consecutive subgroups
	// both tiers must appear.
	tiers := []TierBandwidth{{"a", 2}, {"b", 1}}
	p := NewPlan(60, tiers)
	for lo := 0; lo+6 <= 60; lo += 6 {
		seen := map[int]bool{}
		for _, ti := range p.Assign[lo : lo+6] {
			seen[ti] = true
		}
		if len(seen) != 2 {
			t.Fatalf("window [%d,%d) uses only tiers %v — not interleaved", lo, lo+6, seen)
		}
	}
}

// planFor builds a plan whose Split yields exactly counts: bandwidths
// equal to the counts make every proportional share exact, and a zero
// count is a zero-bandwidth tier.
func planFor(counts ...int) Plan {
	m := 0
	tiers := make([]TierBandwidth, len(counts))
	for i, c := range counts {
		m += c
		tiers[i] = TierBandwidth{Name: string(rune('a' + i)), BW: float64(c)}
	}
	return NewPlan(m, tiers)
}

// tally counts the subgroups Assign places on each tier.
func tally(p Plan) []int {
	got := make([]int, len(p.Tiers))
	for _, ti := range p.Assign {
		got[ti]++
	}
	return got
}

// longestGap is the longest run of consecutive subgroups none of which is
// on tier ti.
func longestGap(assign []int, ti int) int {
	longest, run := 0, 0
	for _, x := range assign {
		if x == ti {
			run = 0
			continue
		}
		run++
		longest = max(longest, run)
	}
	return longest
}

func TestNewPlanExactCounts(t *testing.T) {
	for m := 0; m <= 64; m++ {
		for c0 := 0; c0 <= m; c0++ {
			for c1 := 0; c0+c1 <= m; c1++ {
				want := []int{c0, c1, m - c0 - c1}
				p := planFor(want...)
				if len(p.Assign) != m {
					t.Fatalf("m=%d: len(Assign)=%d", m, len(p.Assign))
				}
				for i, got := range tally(p) {
					if got != want[i] || p.Counts[i] != want[i] {
						t.Fatalf("split %v: tier %d assigned %d, Counts %d", want, i, got, p.Counts[i])
					}
				}
			}
		}
	}
}

// TestNewPlanTwoTierMovesEqualCountChange: with two tiers, replanning from
// any split to any other reassigns exactly |Δc0| subgroups.
func TestNewPlanTwoTierMovesEqualCountChange(t *testing.T) {
	const maxM = 256
	for m := 1; m <= maxM; m++ {
		// onA[c0] is the tier-0 membership bitset of the c0:(m-c0) plan;
		// with two tiers a subgroup changes tier iff its membership flips.
		onA := make([][maxM / 64]uint64, m+1)
		for c0 := 0; c0 <= m; c0++ {
			for sg, ti := range planFor(c0, m-c0).Assign {
				if ti == 0 {
					onA[c0][sg/64] |= 1 << (sg % 64)
				}
			}
		}
		for c := 0; c <= m; c++ {
			for c2 := 0; c2 <= m; c2++ {
				moved := 0
				for w := range onA[c] {
					moved += bits.OnesCount64(onA[c][w] ^ onA[c2][w])
				}
				if want := max(c-c2, c2-c); moved != want {
					t.Fatalf("m=%d: %d:%d -> %d:%d moved %d subgroups, want %d", m, c, m-c, c2, m-c2, moved, want)
				}
			}
		}
	}
}

// TestNewPlanMovesBoundedByBoundaryShift: with k tiers a replan moves at
// most sum_j |ΔC_j| subgroups, C being the running sum of the counts.
func TestNewPlanMovesBoundedByBoundaryShift(t *testing.T) {
	f := func(mSeed uint8, k3 bool, from, to [3]uint8) bool {
		m := int(mSeed) + 1
		k := 4
		if k3 {
			k = 3
		}
		// Cut points in [0, m] sorted into running sums C_0..C_{k-2}.
		cuts := func(seeds [3]uint8) []int {
			c := make([]int, k-1)
			for j := range c {
				c[j] = int(seeds[j]) % (m + 1)
			}
			sort.Ints(c)
			return c
		}
		counts := func(c []int) []int {
			out, prev := make([]int, k), 0
			for j, cj := range c {
				out[j], prev = cj-prev, cj
			}
			out[k-1] = m - prev
			return out
		}
		ca, cb := cuts(from), cuts(to)
		a, b := planFor(counts(ca)...), planFor(counts(cb)...)
		moved, bound := 0, 0
		for sg := range a.Assign {
			if a.Assign[sg] != b.Assign[sg] {
				moved++
			}
		}
		for j := range ca {
			bound += max(ca[j]-cb[j], cb[j]-ca[j])
		}
		return moved <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestNewPlanSpread: every tier stays spread across the shard — the
// longest stretch without a tier-t subgroup is at most 2*ceil(m/c_t) with
// two tiers and 3*ceil(m/c_t) with three — and an even two-tier split
// alternates exactly.
func TestNewPlanSpread(t *testing.T) {
	check := func(p Plan, factor int) {
		t.Helper()
		m := len(p.Assign)
		for ti, c := range p.Counts {
			if c == 0 {
				continue
			}
			if g, lim := longestGap(p.Assign, ti), factor*((m+c-1)/c); g > lim {
				t.Fatalf("split %v: tier %d has a %d-subgroup gap, limit %d", p.Counts, ti, g, lim)
			}
		}
	}
	for m := 1; m <= 256; m++ {
		for c0 := 0; c0 <= m; c0++ {
			check(planFor(c0, m-c0), 2)
		}
		if m%2 == 0 {
			for sg, ti := range planFor(m/2, m/2).Assign {
				if ti != sg%2 {
					t.Fatalf("m=%d even split: subgroup %d on tier %d, want alternation", m, sg, ti)
				}
			}
		}
	}
	for m := 1; m <= 64; m++ {
		for c0 := 0; c0 <= m; c0++ {
			for c1 := 0; c0+c1 <= m; c1++ {
				check(planFor(c0, c1, m-c0-c1), 3)
			}
		}
	}
}

func TestNewPlanTinyShards(t *testing.T) {
	tiers := []TierBandwidth{{"a", 1}, {"b", 3}}
	if p := NewPlan(0, tiers); len(p.Assign) != 0 || p.Counts[0]+p.Counts[1] != 0 {
		t.Errorf("m=0: Assign=%v Counts=%v", p.Assign, p.Counts)
	}
	p := NewPlan(1, tiers)
	if len(p.Assign) != 1 || p.Counts[p.Assign[0]] != 1 {
		t.Errorf("m=1: Assign=%v Counts=%v", p.Assign, p.Counts)
	}
}

func TestNewPlanZeroBandwidthTierGetsNothing(t *testing.T) {
	for m := 1; m <= 64; m++ {
		p := NewPlan(m, []TierBandwidth{{"a", 2}, {"dead", 0}, {"b", 1}})
		if got := tally(p); got[1] != 0 {
			t.Fatalf("m=%d: dead tier assigned %d subgroups", m, got[1])
		}
	}
}

func TestPlanTierForBounds(t *testing.T) {
	p := NewPlan(3, []TierBandwidth{{"a", 1}})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.TierFor(3)
}

func TestPlanRatioString(t *testing.T) {
	p := NewPlan(30, []TierBandwidth{{"nvme", 2}, {"pfs", 1}})
	if got := p.Ratio(); got != "nvme:pfs = 20:10" {
		t.Errorf("Ratio() = %q", got)
	}
}

func TestEstimatorSeedObserve(t *testing.T) {
	e := NewEstimator(0.5)
	e.Seed("nvme", 100, 100)
	bw, ok := e.Estimate("nvme")
	if !ok || bw != 100 {
		t.Fatalf("seed lost: %v %v", bw, ok)
	}
	e.ObserveRead("nvme", 50, 1) // observed 50 B/s
	bw, _ = e.Estimate("nvme")
	if bw != 75 {
		t.Errorf("EWMA = %v, want 75", bw)
	}
	e.ObserveRead("nvme", 75, 1)
	bw, _ = e.Estimate("nvme")
	if bw != 75 {
		t.Errorf("EWMA = %v, want 75", bw)
	}
}

func TestEstimatorFirstObservationWithoutSeed(t *testing.T) {
	e := NewEstimator(0.3)
	e.ObserveRead("pfs", 200, 2)
	bw, ok := e.Estimate("pfs")
	if !ok || bw != 100 {
		t.Errorf("first obs = %v %v", bw, ok)
	}
	if _, ok := e.EstimateWrite("pfs"); ok {
		t.Error("read observation leaked into write estimate")
	}
}

func TestEstimatorIgnoresDegenerate(t *testing.T) {
	e := NewEstimator(0.5)
	e.Seed("x", 10, 10)
	e.ObserveRead("x", 0, 1)
	e.ObserveRead("x", 1, 0)
	e.ObserveWrite("x", -5, 2)
	bw, _ := e.Estimate("x")
	if bw != 10 {
		t.Errorf("degenerate observations changed estimate: %v", bw)
	}
}

func TestEstimatorBandwidths(t *testing.T) {
	e := NewEstimator(1)
	e.Seed("a", 5, 9)
	tbs := e.Bandwidths([]string{"a", "missing"}, 42)
	if tbs[0].BW != 5 || tbs[1].BW != 42 {
		t.Errorf("Bandwidths = %v", tbs)
	}
}

func TestEstimatorTracksWriteAsymmetry(t *testing.T) {
	// A tier whose writes collapse must see its Eq. 1 input collapse even
	// while reads stay fast — a blended estimate would hide the write path
	// (this is how eviction-flush bandwidth steers the plan).
	e := NewEstimator(1)
	e.Seed("pfs", 100, 100)
	e.ObserveRead("pfs", 100, 1) // reads still healthy
	e.ObserveWrite("pfs", 10, 1) // writes collapsed to 10 B/s
	bw, ok := e.Estimate("pfs")
	if !ok || bw != 10 {
		t.Errorf("Estimate = %v %v, want min(read,write) = 10", bw, ok)
	}
	r, _ := e.EstimateRead("pfs")
	w, _ := e.EstimateWrite("pfs")
	if r != 100 || w != 10 {
		t.Errorf("per-direction estimates = %v/%v, want 100/10", r, w)
	}
}

func TestEstimatorAdaptsPlacement(t *testing.T) {
	// End-to-end: PFS slows down under external load; replanning shifts
	// subgroups toward NVMe.
	e := NewEstimator(1)
	e.Seed("nvme", 5.3, 5.3)
	e.Seed("pfs", 3.6, 3.6)
	before := Split(90, e.Bandwidths([]string{"nvme", "pfs"}, 1))
	e.ObserveRead("pfs", 0.9, 1) // PFS now delivering 0.9 B/s
	after := Split(90, e.Bandwidths([]string{"nvme", "pfs"}, 1))
	if after[1] >= before[1] {
		t.Errorf("pfs share did not shrink: before %v after %v", before, after)
	}
	if after[0]+after[1] != 90 {
		t.Errorf("after sums to %d", after[0]+after[1])
	}
}

func TestEstimatorWriteAsymmetryAdaptsPlacement(t *testing.T) {
	// The satellite case: only the write path of one tier degrades (e.g.
	// a PFS under heavy external write load). Fetch-only observation would
	// keep the old plan; flush observation must shrink the tier's share.
	e := NewEstimator(1)
	e.Seed("nvme", 5.3, 5.3)
	e.Seed("pfs", 3.6, 3.6)
	before := Split(90, e.Bandwidths([]string{"nvme", "pfs"}, 1))
	e.ObserveRead("pfs", 3.6, 1)  // fetches unchanged
	e.ObserveWrite("pfs", 0.4, 1) // eviction flushes crawling
	after := Split(90, e.Bandwidths([]string{"nvme", "pfs"}, 1))
	if after[1] >= before[1] {
		t.Errorf("pfs share did not shrink on write collapse: before %v after %v", before, after)
	}
}

func TestNewEstimatorValidatesAlpha(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha=%v should panic", a)
				}
			}()
			NewEstimator(a)
		}()
	}
}
