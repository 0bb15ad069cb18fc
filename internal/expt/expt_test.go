package expt

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"vm1place/internal/tech"
)

const testScale = 0.04 // ~500-cell aes for fast tests

// mustDesign resolves a named paper design, failing the test on error.
func mustDesign(t *testing.T, cfg SuiteConfig, name string) DesignSpec {
	t.Helper()
	spec, err := cfg.design(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestUmToDBU: window sizes and printed lengths share one micron, so a
// 20 µm window prints back as 20 µm.
func TestUmToDBU(t *testing.T) {
	if UmToDBU(20) != 2000 {
		t.Errorf("UmToDBU(20) = %d", UmToDBU(20))
	}
	if got := Um(UmToDBU(20)); got != 20 {
		t.Errorf("Um(UmToDBU(20)) = %g, want 20", got)
	}
}

func TestScaledDesigns(t *testing.T) {
	s := ScaledDesigns(0.1)
	if len(s) != len(PaperDesigns) {
		t.Fatal("wrong count")
	}
	if s[1].NumInsts != 1234 {
		t.Errorf("aes scaled = %d", s[1].NumInsts)
	}
	tiny := ScaledDesigns(0.0001)
	for _, d := range tiny {
		if d.NumInsts < 200 {
			t.Errorf("%s below floor: %d", d.Name, d.NumInsts)
		}
	}
}

// TestScaledDesignsFloor pins the MinScaledInsts clamp: scales below
// MinScaledInsts/NumInsts saturate at the floor — the same design point
// again, not a smaller one — and the boundary sits exactly where the
// docs say.
func TestScaledDesignsFloor(t *testing.T) {
	// Below every design's floor ratio (200/68606 ≈ 0.0029 is the
	// smallest), all four paper designs clamp to the floor.
	for _, d := range ScaledDesigns(0.002) {
		if d.NumInsts != MinScaledInsts {
			t.Errorf("scale 0.002: %s has %d insts, want floor %d", d.Name, d.NumInsts, MinScaledInsts)
		}
	}
	// Two sub-floor scales return identical specs — the duplicate-point
	// hazard the MinScaledInsts docs warn sweep callers about.
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

func TestRunFlowClosedM1(t *testing.T) {
	cfg := SuiteConfig{Scale: testScale, Workers: 4}
	r, err := RunFlowCtx(context.Background(), mustDesign(t, cfg, "aes"), FlowConfig{Arch: tech.ClosedM1, MaxOuterIters: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Final.DM1 <= r.Init.DM1 {
		t.Errorf("dM1 did not increase: %d -> %d", r.Init.DM1, r.Final.DM1)
	}
	if r.OptFinal.Alignments <= r.OptInitial.Alignments {
		t.Errorf("alignments did not increase: %d -> %d",
			r.OptInitial.Alignments, r.OptFinal.Alignments)
	}
	if r.Final.RWL >= r.Init.RWL {
		t.Errorf("RWL did not decrease: %d -> %d", r.Init.RWL, r.Final.RWL)
	}
	var buf bytes.Buffer
	WriteTable2Row(&buf, r)
	if !strings.Contains(buf.String(), "aes") {
		t.Error("row formatting broken")
	}
}

func TestRunFlowOpenM1(t *testing.T) {
	cfg := SuiteConfig{Scale: testScale, Workers: 4}
	r, err := RunFlowCtx(context.Background(), mustDesign(t, cfg, "aes"), FlowConfig{Arch: tech.OpenM1, MaxOuterIters: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Final.DM1 <= r.Init.DM1 {
		t.Errorf("OpenM1 dM1 did not increase: %d -> %d", r.Init.DM1, r.Final.DM1)
	}
}

func TestFig6AlphaShape(t *testing.T) {
	cfg := SuiteConfig{Scale: testScale, Workers: 4}
	pts, err := RunFig6(context.Background(), cfg, tech.ClosedM1, []float64{0, 1200})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatal("wrong point count")
	}
	if pts[1].DM1 <= pts[0].DM1 {
		t.Errorf("alpha=1200 dM1 %d not above alpha=0 dM1 %d", pts[1].DM1, pts[0].DM1)
	}
	var buf bytes.Buffer
	WriteFig6(&buf, tech.ClosedM1, pts)
	if !strings.Contains(buf.String(), "alpha") {
		t.Error("fig6 formatting broken")
	}
}

func TestFig5Runs(t *testing.T) {
	cfg := SuiteConfig{Scale: testScale, Workers: 4}
	pts, err := RunFig5(context.Background(), cfg, []float64{10, 20}, [][2]int{{3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatal("wrong point count")
	}
	var buf bytes.Buffer
	WriteFig5(&buf, pts)
	out := buf.String()
	if !strings.Contains(out, "window_um") || !strings.Contains(out, "norm_rwl") {
		t.Error("fig5 formatting broken")
	}
}

func TestFig8Runs(t *testing.T) {
	cfg := SuiteConfig{Scale: testScale, Workers: 4}
	pts, err := RunFig8(context.Background(), cfg, []float64{0.75})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatal("wrong point count")
	}
	var buf bytes.Buffer
	WriteFig8(&buf, pts)
	if !strings.Contains(buf.String(), "drv_orig") {
		t.Error("fig8 formatting broken")
	}
}
