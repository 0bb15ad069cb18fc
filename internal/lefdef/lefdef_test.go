package lefdef

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"vm1place/internal/cells"
	"vm1place/internal/layout"
	"vm1place/internal/netlist"
	"vm1place/internal/place"
	"vm1place/internal/tech"
)

func buildPlaced(t testing.TB, tc *tech.Tech, arch tech.Arch, n int) (*cells.Library, *layout.Placement) {
	t.Helper()
	lib := cells.MustNewLibrary(tc, arch)
	d := netlist.MustGenerate(lib, netlist.DefaultGenConfig("io", n, 71))
	p := layout.MustNewFloorplan(tc, d, 0.7)
	if err := place.Global(p, place.Options{}); err != nil {
		t.Fatal(err)
	}
	// Flip a few instances so orientation round-trips are exercised.
	for i := 0; i < len(d.Insts); i += 7 {
		p.Flip[i] = true
	}
	return lib, p
}

// TestLEFRoundTrip: the library of every architecture and track variant
// parses back from its LEF with the same architecture and masters.
func TestLEFRoundTrip(t *testing.T) {
	for _, mk := range []func() *tech.Tech{tech.Default, tech.Default6Track, tech.Default9Track} {
		for _, arch := range []tech.Arch{tech.ClosedM1, tech.OpenM1, tech.Conventional} {
			tc := mk()
			t.Run(fmt.Sprintf("%s/row%d", arch, tc.RowHeight), func(t *testing.T) {
				lib := cells.MustNewLibrary(tc, arch)
				var buf bytes.Buffer
				if err := WriteLEF(&buf, lib); err != nil {
					t.Fatal(err)
				}
				got, err := ParseLEF(&buf, tc)
				if err != nil {
					t.Fatal(err)
				}
				if got.Arch != arch {
					t.Errorf("parsed arch = %s", got.Arch)
				}
				if len(got.Masters) != len(lib.Masters) {
					t.Fatalf("%d masters, want %d", len(got.Masters), len(lib.Masters))
				}
				for _, want := range lib.Masters {
					m := got.Master(want.Name)
					if m == nil {
						t.Fatalf("master %s lost", want.Name)
					}
					if m.Arch != arch || m.WidthSites != want.WidthSites {
						t.Errorf("%s: %s, %d sites; want %s, %d", m.Name, m.Arch, m.WidthSites, arch, want.WidthSites)
					}
					if len(m.Pins) != len(want.Pins) {
						t.Fatalf("%s: %d pins, want %d", m.Name, len(m.Pins), len(want.Pins))
					}
					for pi := range want.Pins {
						wp, gp := &want.Pins[pi], &m.Pins[pi]
						if wp.Name != gp.Name || wp.Dir != gp.Dir {
							t.Errorf("%s: pin %d = %s/%s, want %s/%s",
								m.Name, pi, gp.Name, gp.Dir, wp.Name, wp.Dir)
						}
						if len(wp.Shapes) != len(gp.Shapes) {
							t.Fatalf("%s/%s: %d shapes, want %d",
								m.Name, wp.Name, len(gp.Shapes), len(wp.Shapes))
						}
						for si := range wp.Shapes {
							if wp.Shapes[si] != gp.Shapes[si] {
								t.Errorf("%s/%s: shape %d = %+v, want %+v",
									m.Name, wp.Name, si, gp.Shapes[si], wp.Shapes[si])
							}
						}
					}
				}
			})
		}
	}
}

// TestDEFRoundTrip: a placement of every architecture and track variant
// survives WriteDEF → ParseDEF with its die, masters, sites, rows, flips,
// HPWL and clock net, and stays legal.
func TestDEFRoundTrip(t *testing.T) {
	for _, mk := range []func() *tech.Tech{tech.Default, tech.Default6Track, tech.Default9Track} {
		for _, arch := range []tech.Arch{tech.ClosedM1, tech.OpenM1, tech.Conventional} {
			tc := mk()
			t.Run(fmt.Sprintf("%s/row%d", arch, tc.RowHeight), func(t *testing.T) {
				checkDEFRoundTrip(t, tc, arch)
			})
		}
	}
}

func checkDEFRoundTrip(t *testing.T, tc *tech.Tech, arch tech.Arch) {
	t.Helper()
	lib, p := buildPlaced(t, tc, arch, 300)
	var buf bytes.Buffer
	if err := WriteDEF(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ParseDEF(&buf, tc, lib)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumSites != p.NumSites || q.NumRows != p.NumRows {
		t.Errorf("die mismatch: %dx%d vs %dx%d", q.NumSites, q.NumRows, p.NumSites, p.NumRows)
	}
	if len(q.Design.Insts) != len(p.Design.Insts) {
		t.Fatalf("instance count mismatch")
	}
	for i := range p.Design.Insts {
		if q.SiteX[i] != p.SiteX[i] || q.Row[i] != p.Row[i] || q.Flip[i] != p.Flip[i] {
			t.Fatalf("inst %d placement mismatch: (%d,%d,%v) vs (%d,%d,%v)",
				i, q.SiteX[i], q.Row[i], q.Flip[i], p.SiteX[i], p.Row[i], p.Flip[i])
		}
		if q.Design.Insts[i].Master.Name != p.Design.Insts[i].Master.Name {
			t.Fatalf("inst %d master mismatch", i)
		}
	}
	if got, want := q.TotalHPWL(), p.TotalHPWL(); got != want {
		t.Errorf("HPWL after round trip = %d, want %d", got, want)
	}
	// Clock net must survive.
	foundClock := false
	for ni := range q.Design.Nets {
		if q.Design.Nets[ni].IsClock {
			foundClock = true
		}
	}
	if !foundClock {
		t.Error("clock net lost in round trip")
	}
	if err := q.CheckLegal(); err != nil {
		t.Errorf("round-tripped placement illegal: %v", err)
	}
}

// invDEF is a 10-site x 2-row design whose INV_X1 instances, PLACED at the
// given DBU coordinates, form a chain from an input port to an output port.
// Only the placement can make it illegal.
func invDEF(at ...[2]int64) string {
	var b strings.Builder
	b.WriteString("DESIGN inv ;\nDIEAREA ( 0 0 ) ( 1000 500 ) ;\n")
	b.WriteString("ROW r0 coreSite 0 0 N DO 10 BY 1 STEP 100 0 ;\nROW r1 coreSite 0 250 FS DO 10 BY 1 STEP 100 0 ;\n")
	fmt.Fprintf(&b, "COMPONENTS %d ;\n", len(at))
	for i, xy := range at {
		fmt.Fprintf(&b, "- u%d INV_X1 + PLACED ( %d %d ) N ;\n", i, xy[0], xy[1])
	}
	b.WriteString("END COMPONENTS\nPINS 2 ;\n")
	fmt.Fprintf(&b, "- in + NET n0 + DIRECTION INPUT + FIXED ( 0 0 ) N ;\n- out + NET n%d + DIRECTION OUTPUT + FIXED ( 1000 500 ) N ;\n", len(at))
	fmt.Fprintf(&b, "END PINS\nNETS %d ;\n- n0 ( PIN in )", len(at)+1)
	for i := range at {
		fmt.Fprintf(&b, " ( u%d A ) ;\n- n%d ( u%d ZN )", i, i+1, i)
	}
	b.WriteString(" ( PIN out ) ;\nEND NETS\nEND DESIGN\n")
	return b.String()
}

func TestParseDEFErrors(t *testing.T) {
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.ClosedM1)
	if p, err := ParseDEF(strings.NewReader(invDEF([2]int64{0, 0}, [2]int64{500, 250})), tc, lib); err != nil {
		t.Fatalf("legal chain rejected: %v", err)
	} else if err := p.CheckLegal(); err != nil {
		t.Fatalf("legal chain: %v", err)
	}
	cases := []string{
		"",                              // empty
		"DESIGN x ;\nEND DESIGN\n",      // no die
		"DIEAREA ( 0 0 ) ( 100 100 ) ;", // no rows
		"DIEAREA ( 0 0 ) ( 1000 1000 ) ;\nROW r coreSite 0 0 N DO 10 BY 1 STEP 100 0 ;\nCOMPONENTS 1 ;\n- u1 NOPE + PLACED ( 0 0 ) N ;\nEND COMPONENTS\n",
		// Illegal placements: negative coordinates, off the die, overlapping.
		invDEF([2]int64{-5000, -2500}),
		invDEF([2]int64{5000, 250}),
		invDEF([2]int64{200, 0}, [2]int64{200, 0}),
	}
	for i, src := range cases {
		if _, err := ParseDEF(strings.NewReader(src), tc, lib); !errors.Is(err, ErrBadDEF) {
			t.Errorf("case %d: error %v, want one wrapping ErrBadDEF", i, err)
		}
	}
	// Inputs that would otherwise parse into a wrong placement must fail
	// naming what is wrong: a pin coordinate that is not a number, a die
	// whose origin is not (0, 0), a die that is not one rectangle, and
	// ROWs that do not tile the die.
	legal := invDEF([2]int64{0, 0}, [2]int64{500, 250})
	const die = "DIEAREA ( 0 0 ) ( 1000 500 ) ;"
	const row1 = "ROW r1 coreSite 0 250 FS DO 10 BY 1 STEP 100 0 ;"
	named := []struct{ src, want string }{
		{strings.Replace(legal, "FIXED ( 0 0 )", "FIXED ( 12x 7y )", 1), "FIXED"},
		{strings.Replace(legal, die, "DIEAREA ( 5000 5000 ) ( 6000 5500 ) ;", 1), "( 5000 5000 )"},
		{strings.Replace(legal, die, "DIEAREA ( 100 0 ) ( 1000 500 ) ;", 1), "( 100 0 )"},
		{strings.Replace(legal, die, "DIEAREA ( 0 0 ) ( 1000 500 ) ( 0 500 ) ;", 1), "DIEAREA"},
		{strings.Replace(legal, die, "DIEAREA ( 0 0 ) ( 1000 5x0 ) ;", 1), "DIEAREA"},
		// A die narrower than one site, a net with two drivers, and pins
		// that name no net or two.
		{"DIEAREA ( 0 0 ) ( 50 250 ) ;\nROW r0 coreSite 0 0 N DO 1 BY 1 STEP 100 0 ;\n", "die of 1 rows x 0 sites"},
		{strings.Replace(legal, "( u0 ZN )", "( u0 ZN ) ( u1 ZN )", 1), "second driver u1/ZN"},
		{strings.Replace(legal, "- in + NET n0 +", "- in +", 1), "pin in names no net"},
		{strings.Replace(legal, "- in + NET n0 +", "- in + NET n0 + NET n1 +", 1), "pin in names two nets"},
		// ROWs that do not tile the die from ( 0 0 ) one row pitch apart:
		// a third row above the die, a row off x 0 or off the row grid, two
		// rows at one y, a missing row, and a die no whole number of rows
		// high.
		{strings.Replace(legal, row1, row1+"\nROW r2 coreSite 0 500 N DO 10 BY 1 STEP 100 0 ;", 1), "ROW r2 origin ( 0 500 )"},
		{strings.Replace(legal, row1, "ROW r1 coreSite 300 250 FS ;", 1), "ROW r1 origin ( 300 250 )"},
		{strings.Replace(legal, row1, "ROW r1 coreSite 0 240 FS ;", 1), "ROW r1 origin ( 0 240 )"},
		{strings.Replace(legal, row1, "ROW r1 coreSite 0 0 FS ;", 1), "ROW r1 at y 0 repeats ROW r0"},
		{strings.Replace(legal, row1, "ROW r1 coreSite 0 x FS ;", 1), "ROW r1 has a bad origin"},
		{strings.Replace(legal, row1, "", 1), "no ROW at y 250"},
		{strings.Replace(legal, die, "DIEAREA ( 0 0 ) ( 1000 600 ) ;", 1), "DIEAREA height 600"},
		// A ROW's DO count other than the die's 10 sites: three sites
		// would leave a component at site 7 outside every row.
		{strings.ReplaceAll(invDEF([2]int64{0, 0}, [2]int64{700, 250}), "DO 10", "DO 3"), "ROW r0 has DO 3 sites, want the die's 10"},
		{strings.Replace(legal, row1, "ROW r1 coreSite 0 250 FS DO 11 BY 1 STEP 100 0 ;", 1), "ROW r1 has DO 11 sites"},
		{strings.Replace(legal, row1, "ROW r1 coreSite 0 250 FS DO ten BY 1 ;", 1), "ROW r1 has DO ten sites"},
	}
	for i, c := range named {
		_, err := ParseDEF(strings.NewReader(c.src), tc, lib)
		if !errors.Is(err, ErrBadDEF) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("named case %d: error %v, want one wrapping ErrBadDEF naming %q", i, err, c.want)
		}
	}
	// A ROW without DO spans the die.
	if _, err := ParseDEF(strings.NewReader(strings.ReplaceAll(legal, " DO 10 BY 1 STEP 100 0", "")), tc, lib); err != nil {
		t.Errorf("ROWs without DO rejected: %v", err)
	}
	// Names that read like keywords are names: a port named NET and a
	// component named PLACED parse to the same placement as the plain DEF.
	kw := strings.NewReplacer("u1", "PLACED", "- out +", "- NET +", "PIN out", "PIN NET").Replace(legal)
	want, err := ParseDEF(strings.NewReader(legal), tc, lib)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseDEF(strings.NewReader(kw), tc, lib)
	if err != nil {
		t.Fatalf("keyword-like names rejected: %v", err)
	}
	inst, port := got.Design.Insts[1], got.Design.Ports[1]
	if inst.Name != "PLACED" || got.SiteX[1] != want.SiteX[1] || got.Row[1] != want.Row[1] ||
		port.Name != "NET" || port.Net != want.Design.Ports[1].Net || got.PortXY[1] != want.PortXY[1] {
		t.Errorf("keyword-like names misparsed: inst %q at (%d, %d), port %q on net %d at %v",
			inst.Name, got.SiteX[1], got.Row[1], port.Name, port.Net, got.PortXY[1])
	}
}

// TestParseLEFErrors: malformed LEF fails with an error wrapping ErrBadLEF
// that names what is wrong.
func TestParseLEFErrors(t *testing.T) {
	tc := tech.Default()
	pin := func(port string) string {
		return "MACRO X\n SIZE 0.2 BY 0.5 ;\n PIN A\n DIRECTION INPUT ;\n PORT\n" + port + " END\n END A\nEND X\n"
	}
	for i, c := range []struct{ src, want string }{
		{pin(" LAYER M9 ;\n RECT 0 0 1 1 ;\n"), `unknown layer "M9"`},
		{pin(" LAYER M1 ;\n POLYGON 0 0 1 1 ;\n"), `expected RECT after LAYER, got "POLYGON"`},
		{pin(" LAYER M1 ;\n RECT 0 0 1 ;\n"), "RECT wants 4 coords, got 3"},
		{pin(" LAYER M1 ;\n RECT 0 0 x 1 ;\n"), `bad RECT coord "x"`},
		{"MACRO X\n SIZE w BY 0.5 ;\nEND X\n", `bad SIZE "w"`},
		{"MACRO X\n SIZE 0.2 BY h ;\nEND X\n", `bad SIZE height "h"`},
		// A two-row master fails the library's own validation.
		{"MACRO X\n SIZE 0.2 BY 1.0 ;\nEND X\n", "parsed library"},
	} {
		_, err := ParseLEF(strings.NewReader(c.src), tc)
		if !errors.Is(err, ErrBadLEF) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %v, want one wrapping ErrBadLEF naming %q", i, err, c.want)
		}
	}
}

func TestLEFContainsExpectedSections(t *testing.T) {
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.ClosedM1)
	var buf bytes.Buffer
	if err := WriteLEF(&buf, lib); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"VERSION 5.7", "SITE coreSite", "MACRO INV_X1", "PIN ZN", "END LIBRARY"} {
		if !strings.Contains(out, want) {
			t.Errorf("LEF missing %q", want)
		}
	}
}

func TestDEFContainsExpectedSections(t *testing.T) {
	_, p := buildPlaced(t, tech.Default(), tech.ClosedM1, 200)
	var buf bytes.Buffer
	if err := WriteDEF(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"VERSION 5.7", "DIEAREA", "COMPONENTS", "END COMPONENTS", "PINS", "NETS", "END DESIGN", "USE CLOCK"} {
		if !strings.Contains(out, want) {
			t.Errorf("DEF missing %q", want)
		}
	}
}
