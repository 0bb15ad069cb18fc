package expt

import (
	"strings"
	"testing"
	"time"
)

// TestScaledDesignsFloor pins the MinScaledInsts clamp (the satellite
// fix of PR 9): scales below MinScaledInsts/NumInsts saturate at the
// floor — the same design point again, not a smaller one — and the
// boundary sits exactly where the docs say.
func TestScaledDesignsFloor(t *testing.T) {
	// Below every design's floor ratio (200/68606 ≈ 0.0029 is the
	// smallest), all four paper designs clamp to the floor.
	for _, d := range ScaledDesigns(0.002) {
		if d.NumInsts != MinScaledInsts {
			t.Errorf("scale 0.002: %s has %d insts, want floor %d", d.Name, d.NumInsts, MinScaledInsts)
		}
	}
	// Two sub-floor scales return identical specs — the duplicate-point
	// hazard the docs warn sweep drivers about.
	a, b := ScaledDesigns(0.002), ScaledDesigns(0.001)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("sub-floor scales differ: %+v vs %+v", a[i], b[i])
		}
	}
	// Just above m0's floor ratio (200/9922 ≈ 0.02016) the clamp must
	// release: scale 0.021 gives m0 208 > MinScaledInsts instances.
	if got := ScaledDesigns(0.021)[0]; got.NumInsts <= MinScaledInsts {
		t.Errorf("scale 0.021: m0 has %d insts, want > floor %d", got.NumInsts, MinScaledInsts)
	}
	// And the floor never rounds a legitimate point down.
	if got := ScaledDesigns(1.0)[0].NumInsts; got != PaperDesigns[0].NumInsts {
		t.Errorf("scale 1.0 altered m0: %d want %d", got, PaperDesigns[0].NumInsts)
	}
}

// TestScaleSweepPointsDedupe checks the sweep expansion drops the
// duplicate floored points instead of re-running them, keeps distinct
// scales distinct, and supports above-paper scales for the synthetic
// large designs.
func TestScaleSweepPointsDedupe(t *testing.T) {
	pts, err := ScaleSweepPoints("m0", []float64{0.005, 0.01, 0.02, 0.1, 0.1, 1.0, 12.0})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, p := range pts {
		if seen[p.NumInsts] {
			t.Errorf("duplicate point NumInsts=%d survived dedupe: %+v", p.NumInsts, pts)
		}
		seen[p.NumInsts] = true
	}
	// 0.005, 0.01 and 0.02 all floor to one 200-inst point; 0.1 repeats;
	// so 7 scales collapse to 4 points: 200, 992, 9922, 119064.
	if len(pts) != 4 {
		t.Fatalf("got %d points %+v, want 4", len(pts), pts)
	}
	if pts[0].NumInsts != MinScaledInsts || pts[3].NumInsts != 12*PaperDesigns[0].NumInsts {
		t.Errorf("unexpected endpoints: %+v", pts)
	}
	if _, err := ScaleSweepPoints("nope", []float64{1}); err == nil {
		t.Error("unknown design accepted")
	}
}

// TestScaleSweepSmoke is the tiny sweep behind `make bench-scale-smoke`:
// two sub-floor scales collapse to one floored flow, which must complete,
// route, and record a positive peak-heap sample.
func TestScaleSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small full flow")
	}
	cfg := SuiteConfig{Workers: 2}
	pts, err := RunScaleSweep(cfg, "m0", []float64{0.005, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	a := pts[0]
	if a.NumInsts != MinScaledInsts {
		t.Errorf("floored sweep point has %d insts, want %d", a.NumInsts, MinScaledInsts)
	}
	if a.PeakHeapMB <= 0 || a.RWL <= 0 || a.DM1 <= 0 {
		t.Errorf("point not measured: %+v", a)
	}
	var sb strings.Builder
	WriteScaleSweep(&sb, pts)
	if !strings.Contains(sb.String(), "m0") {
		t.Errorf("WriteScaleSweep output missing design: %q", sb.String())
	}
}

// TestPeakHeapSampler checks the sampler observes an allocation spike
// made while it runs.
func TestPeakHeapSampler(t *testing.T) {
	s := StartPeakHeapSampler(time.Millisecond)
	big := make([]byte, 64<<20)
	for i := range big {
		big[i] = byte(i)
	}
	time.Sleep(10 * time.Millisecond)
	peak := s.Stop()
	if peak < uint64(len(big)) {
		t.Errorf("peak %d below the 64MB spike", peak)
	}
	_ = big[0]
}
