package tech

import (
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	tc := Default()
	if err := tc.Validate(); err != nil {
		t.Fatalf("default tech invalid: %v", err)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mods := []func(*Tech){
		func(tc *Tech) { tc.SiteWidth = 0 },
		func(tc *Tech) { tc.RowHeight = -1 },
		func(tc *Tech) { tc.DBUPerMicron = 999 }, // not multiple of site width
		func(tc *Tech) { tc.RowHeight = 300 },    // not divisor of DBUPerMicron
		func(tc *Tech) { tc.Gamma = 0 },
		func(tc *Tech) { tc.Delta = -5 },
	}
	for i, mod := range mods {
		tc := Default()
		mod(tc)
		if err := tc.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestSiteRowMapping(t *testing.T) {
	tc := Default()
	if tc.SiteX(3) != 300 || tc.RowY(2) != 500 {
		t.Error("SiteX/RowY broken")
	}
	if tc.XToSite(0) != 0 || tc.XToSite(99) != 0 || tc.XToSite(100) != 1 {
		t.Error("XToSite floor semantics broken")
	}
	if tc.YToRow(249) != 0 || tc.YToRow(250) != 1 {
		t.Error("YToRow floor semantics broken")
	}
	if tc.XToSite(-1) != -1 || tc.XToSite(-100) != -1 || tc.XToSite(-101) != -2 {
		t.Error("XToSite negative floor broken")
	}
	if tc.YToRow(-1) != -1 || tc.YToRow(-250) != -1 || tc.YToRow(-251) != -2 {
		t.Error("YToRow negative floor broken")
	}
}

// Property: SiteX and XToSite round-trip for any site index, and XToSite is
// the floor inverse for any coordinate.
func TestSiteRoundTripQuick(t *testing.T) {
	tc := Default()
	f := func(sx int16, off uint8) bool {
		s := int(sx)
		x := tc.SiteX(s) + int64(off)%tc.SiteWidth
		return tc.XToSite(x) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(ry int16, off uint8) bool {
		r := int(ry)
		y := tc.RowY(r) + int64(off)%tc.RowHeight
		return tc.YToRow(y) == r
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestLayerProperties(t *testing.T) {
	if M1.Direction() != Vertical || M3.Direction() != Vertical {
		t.Error("odd layers must be vertical")
	}
	if M0.Direction() != Horizontal || M2.Direction() != Horizontal || M4.Direction() != Horizontal {
		t.Error("even layers must be horizontal")
	}
	if M1.String() != "M1" || M0.String() != "M0" {
		t.Error("layer names broken")
	}
	if Horizontal.String() != "H" || Vertical.String() != "V" {
		t.Error("dir names broken")
	}
}

func TestArchString(t *testing.T) {
	if Conventional.String() != "Conventional" ||
		ClosedM1.String() != "ClosedM1" ||
		OpenM1.String() != "OpenM1" {
		t.Error("arch names broken")
	}
	if Arch(42).String() != "Arch(42)" {
		t.Error("unknown arch name broken")
	}
}
