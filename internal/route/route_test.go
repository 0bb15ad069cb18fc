package route

import (
	"testing"

	"vm1place/internal/cells"
	"vm1place/internal/layout"
	"vm1place/internal/netlist"
	"vm1place/internal/place"
	"vm1place/internal/tech"
)

// manual builds tiny hand-wired designs for targeted routing scenarios.
type manual struct {
	d *netlist.Design
}

func newManual(lib *cells.Library) *manual {
	return &manual{d: &netlist.Design{Name: "manual", Lib: lib}}
}

func (m *manual) addInst(master string) int {
	ms := m.d.Lib.MustMaster(master)
	inst := netlist.Instance{
		Name:    "u" + string(rune('0'+len(m.d.Insts))),
		Master:  ms,
		PinNets: make([]int, len(ms.Pins)),
	}
	for i := range inst.PinNets {
		inst.PinNets[i] = -1
	}
	m.d.Insts = append(m.d.Insts, inst)
	return len(m.d.Insts) - 1
}

func (m *manual) pinIdx(inst int, pin string) int {
	ms := m.d.Insts[inst].Master
	for i := range ms.Pins {
		if ms.Pins[i].Name == pin {
			return i
		}
	}
	panic("no pin " + pin)
}

// connect wires driver (inst, pinName) to sinks; returns net index.
func (m *manual) connect(drvInst int, drvPin string, sinks ...[2]interface{}) int {
	ni := len(m.d.Nets)
	dp := m.pinIdx(drvInst, drvPin)
	net := netlist.Net{
		Name:   "n" + string(rune('0'+ni)),
		Driver: netlist.Conn{Inst: drvInst, Pin: dp},
	}
	m.d.Insts[drvInst].PinNets[dp] = ni
	for _, s := range sinks {
		si := s[0].(int)
		sp := m.pinIdx(si, s[1].(string))
		net.Sinks = append(net.Sinks, netlist.Conn{Inst: si, Pin: sp})
		m.d.Insts[si].PinNets[sp] = ni
	}
	m.d.Nets = append(m.d.Nets, net)
	return ni
}

// tieOff connects all unconnected input pins of every instance to a fresh
// dummy driver net each (keeps Validate happy without affecting routing
// scenarios, since single-sink nets driven by their own dedicated inverter
// would change the layout; instead we use port-driven nets).
func (m *manual) tieOff() {
	for ii := range m.d.Insts {
		inst := &m.d.Insts[ii]
		for pi := range inst.PinNets {
			p := &inst.Master.Pins[pi]
			if !p.IsSignal() || inst.PinNets[pi] != -1 {
				continue
			}
			ni := len(m.d.Nets)
			if p.Dir == cells.Input {
				m.d.Nets = append(m.d.Nets, netlist.Net{
					Name:   "tie" + string(rune('0'+ni)),
					Driver: netlist.Conn{Inst: -1},
					Sinks:  []netlist.Conn{{Inst: ii, Pin: pi}},
				})
				m.d.AddPort(netlist.Port{
					Name: "tp" + string(rune('0'+ni)), Net: ni, Input: true,
					Side: netlist.West, Pos: 0.5,
				})
			} else {
				m.d.Nets = append(m.d.Nets, netlist.Net{
					Name:   "obs" + string(rune('0'+ni)),
					Driver: netlist.Conn{Inst: ii, Pin: pi},
				})
				m.d.AddPort(netlist.Port{
					Name: "op" + string(rune('0'+ni)), Net: ni, Input: false,
					Side: netlist.East, Pos: 0.5,
				})
			}
			inst.PinNets[pi] = ni
		}
	}
	if err := m.d.Validate(); err != nil {
		panic(err)
	}
}

// mkClosed returns a tiny ClosedM1 placement with two INVs wired
// ZN(u0) -> A(u1), plus the placement handle for manual location control.
func mkClosedPair(t *testing.T) (*layout.Placement, *Router, int) {
	t.Helper()
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.ClosedM1)
	m := newManual(lib)
	u0 := m.addInst("INV_X1")
	u1 := m.addInst("INV_X1")
	ni := m.connect(u0, "ZN", [2]interface{}{u1, "A"})
	m.tieOff()
	p := layout.MustNewFloorplan(tc, m.d, 0.05)
	p.SpreadEven()
	r := New(p, DefaultConfig(tc, tech.ClosedM1))
	_ = u0
	_ = u1
	return p, r, ni
}

func TestClosedM1AlignedPairGetsDM1(t *testing.T) {
	p, r, _ := mkClosedPair(t)
	// INV_X1: A on track 0, ZN on track 1 (unflipped).
	// u0 at (site 0, row 0): ZN at site 1. u1 at (site 1, row 1): A at
	// site 1. Aligned -> direct vertical M1 route.
	p.SetLoc(0, 0, 0, false)
	p.SetLoc(1, 1, 1, false)
	m := routeAll(t, r)
	if m.DM1 != 1 {
		t.Errorf("DM1 = %d, want 1", m.DM1)
	}
	if m.LayerWL[tech.M1] < p.Tech.RowHeight {
		t.Errorf("M1 WL = %d, want >= %d", m.LayerWL[tech.M1], p.Tech.RowHeight)
	}
	if m.FailedConns != 0 {
		t.Errorf("FailedConns = %d", m.FailedConns)
	}
}

func TestClosedM1MisalignedPairNoDM1(t *testing.T) {
	p, r, _ := mkClosedPair(t)
	// u1 at site 4: A at site 4, misaligned with u0's ZN at site 1.
	p.SetLoc(0, 0, 0, false)
	p.SetLoc(1, 4, 1, false)
	m := routeAll(t, r)
	if m.DM1 != 0 {
		t.Errorf("DM1 = %d, want 0", m.DM1)
	}
	// The connection must still complete, using upper layers.
	if m.FailedConns != 0 {
		t.Errorf("FailedConns = %d", m.FailedConns)
	}
	if m.Via12 == 0 {
		t.Error("misaligned route should use vias to M2")
	}
}

func TestClosedM1GammaLimit(t *testing.T) {
	p, r, _ := mkClosedPair(t)
	// Aligned but 5 rows apart: beyond gamma=3, so even if routed on M1
	// it must not count as dM1.
	p.SetLoc(0, 0, 0, false)
	p.SetLoc(1, 1, 5, false)
	m := routeAll(t, r)
	if m.DM1 != 0 {
		t.Errorf("DM1 = %d, want 0 (span 5 > gamma 3)", m.DM1)
	}
}

func TestClosedM1FlipEnablesAlignment(t *testing.T) {
	p, r, _ := mkClosedPair(t)
	// u1 flipped: A moves from track 0 to track 1 within the cell.
	// u0 at site 0 (ZN at site 1); u1 at site 0 flipped -> A at site 1.
	p.SetLoc(0, 0, 0, false)
	p.SetLoc(1, 0, 1, true)
	m := routeAll(t, r)
	if m.DM1 != 1 {
		t.Errorf("DM1 = %d, want 1 with flipped sink", m.DM1)
	}
}

func TestClosedM1BlockedTrackPreventsDM1(t *testing.T) {
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.ClosedM1)
	m := newManual(lib)
	u0 := m.addInst("INV_X1")
	u1 := m.addInst("INV_X1")
	u2 := m.addInst("INV_X1") // blocker
	u3 := m.addInst("INV_X1") // sink of blocker's net, far away
	m.connect(u0, "ZN", [2]interface{}{u1, "A"})
	m.connect(u2, "ZN", [2]interface{}{u3, "A"})
	m.tieOff()
	p := layout.MustNewFloorplan(tc, m.d, 0.1)
	p.SpreadEven()
	// u0 row0 site0 (ZN at site 1), u1 row2 site1 (A at site 1): span 2,
	// would be dM1 via track 1 through row 1...
	p.SetLoc(u0, 0, 0, false)
	p.SetLoc(u1, 1, 2, false)
	// ...but u2 at row1 site0 puts its ZN pin on (site 1, row 1).
	p.SetLoc(u2, 0, 1, false)
	p.SetLoc(u3, 5, 4, false)
	r := New(p, DefaultConfig(tc, tech.ClosedM1))
	mm := routeAll(t, r)
	// Net 0 must not get a dM1 (track blocked); net 1 is misaligned.
	if mm.DM1 != 0 {
		t.Errorf("DM1 = %d, want 0 (track blocked by foreign pin)", mm.DM1)
	}
	if mm.FailedConns != 0 {
		t.Errorf("FailedConns = %d", mm.FailedConns)
	}
	// Control: move the blocker away and the dM1 appears.
	p.SetLoc(u2, 6, 1, false)
	mm = routeAll(t, r)
	if mm.DM1 != 1 {
		t.Errorf("control DM1 = %d, want 1 after moving blocker", mm.DM1)
	}
}

func TestOpenM1OverlapGetsDM1(t *testing.T) {
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.OpenM1)
	m := newManual(lib)
	u0 := m.addInst("INV_X1")
	u1 := m.addInst("INV_X1")
	m.connect(u0, "ZN", [2]interface{}{u1, "A"})
	m.tieOff()
	p := layout.MustNewFloorplan(tc, m.d, 0.1)
	p.SpreadEven()
	// OpenM1 INV_X1 (width 2 sites = 200 dbu): A spans [10,150] locally,
	// ZN spans [10,190]. Placing both at site 0 in adjacent rows makes the
	// x-extents overlap heavily -> dM1.
	p.SetLoc(u0, 0, 0, false)
	p.SetLoc(u1, 0, 1, false)
	r := New(p, DefaultConfig(tc, tech.OpenM1))
	mm := routeAll(t, r)
	if mm.DM1 != 1 {
		t.Errorf("DM1 = %d, want 1 for overlapping OpenM1 pins", mm.DM1)
	}
	if mm.Via01 == 0 {
		t.Error("OpenM1 routing must report via01 usage")
	}
}

func TestOpenM1DisjointNoDM1(t *testing.T) {
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.OpenM1)
	m := newManual(lib)
	u0 := m.addInst("INV_X1")
	u1 := m.addInst("INV_X1")
	m.connect(u0, "ZN", [2]interface{}{u1, "A"})
	m.tieOff()
	p := layout.MustNewFloorplan(tc, m.d, 0.1)
	p.SpreadEven()
	// Far apart horizontally: no overlap -> no dM1.
	p.SetLoc(u0, 0, 0, false)
	p.SetLoc(u1, 8, 1, false)
	r := New(p, DefaultConfig(tc, tech.OpenM1))
	mm := routeAll(t, r)
	if mm.DM1 != 0 {
		t.Errorf("DM1 = %d, want 0 for disjoint OpenM1 pins", mm.DM1)
	}
	if mm.FailedConns != 0 {
		t.Errorf("FailedConns = %d", mm.FailedConns)
	}
}

func TestConventionalNoM1Routing(t *testing.T) {
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.Conventional)
	d := netlist.MustGenerate(lib, netlist.DefaultGenConfig("conv", 300, 31))
	p := layout.MustNewFloorplan(tc, d, 0.7)
	if err := place.Global(p, place.Options{}); err != nil {
		t.Fatal(err)
	}
	r := New(p, DefaultConfig(tc, tech.Conventional))
	m := routeAll(t, r)
	if m.LayerWL[tech.M1] != 0 {
		t.Errorf("conventional arch used M1: WL %d", m.LayerWL[tech.M1])
	}
	if m.DM1 != 0 {
		t.Errorf("conventional arch reported %d dM1", m.DM1)
	}
	if m.RWL == 0 {
		t.Error("no routing happened")
	}
}

func TestFullDesignRoutes(t *testing.T) {
	for _, arch := range []tech.Arch{tech.ClosedM1, tech.OpenM1} {
		tc := tech.Default()
		lib := cells.MustNewLibrary(tc, arch)
		d := netlist.MustGenerate(lib, netlist.DefaultGenConfig("full", 600, 32))
		p := layout.MustNewFloorplan(tc, d, 0.7)
		if err := place.Global(p, place.Options{}); err != nil {
			t.Fatal(err)
		}
		r := New(p, DefaultConfig(tc, arch))
		m := routeAll(t, r)
		if m.FailedConns > 2 {
			t.Errorf("%s: FailedConns = %d", arch, m.FailedConns)
		}
		if m.RWL <= 0 {
			t.Errorf("%s: RWL = %d", arch, m.RWL)
		}
		var sum int64
		for l := tech.M1; l <= tech.M4; l++ {
			sum += m.LayerWL[l]
		}
		if sum != m.RWL {
			t.Errorf("%s: layer WL sum %d != RWL %d", arch, sum, m.RWL)
		}
		if m.DM1 < 1 {
			t.Errorf("%s: expected some natural dM1, got %d", arch, m.DM1)
		}
		if m.Via12 == 0 {
			t.Errorf("%s: no via12 counted", arch)
		}
	}
}

func TestRouteDeterministic(t *testing.T) {
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.ClosedM1)
	d := netlist.MustGenerate(lib, netlist.DefaultGenConfig("det", 400, 33))
	p := layout.MustNewFloorplan(tc, d, 0.7)
	if err := place.Global(p, place.Options{}); err != nil {
		t.Fatal(err)
	}
	r1 := New(p, DefaultConfig(tc, tech.ClosedM1))
	m1 := routeAll(t, r1)
	r2 := New(p, DefaultConfig(tc, tech.ClosedM1))
	m2 := routeAll(t, r2)
	if m1 != m2 {
		t.Errorf("routing not deterministic: %+v vs %+v", m1, m2)
	}
}

func TestRouteAllIdempotentReset(t *testing.T) {
	p, r, _ := mkClosedPair(t)
	p.SetLoc(0, 0, 0, false)
	p.SetLoc(1, 1, 1, false)
	m1 := routeAll(t, r)
	m2 := routeAll(t, r)
	if m1 != m2 {
		t.Errorf("RouteAllCtx not idempotent: %+v vs %+v", m1, m2)
	}
}

func TestReroutesAfterPlacementChange(t *testing.T) {
	p, r, _ := mkClosedPair(t)
	p.SetLoc(0, 0, 0, false)
	p.SetLoc(1, 4, 1, false) // misaligned
	before := routeAll(t, r)
	if before.DM1 != 0 {
		t.Fatalf("setup: DM1 = %d", before.DM1)
	}
	p.SetLoc(1, 1, 1, false) // align
	after := routeAll(t, r)
	if after.DM1 != 1 {
		t.Errorf("after alignment DM1 = %d, want 1", after.DM1)
	}
	if after.Via12 >= before.Via12 {
		t.Errorf("aligned via12 %d not fewer than misaligned %d", after.Via12, before.Via12)
	}
}

func TestDM1AwareVsPlainRouter(t *testing.T) {
	// Ablation: the dM1-aware cost (cheap M1) must pull more routing onto
	// M1 than the plain cost on the same placement.
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.ClosedM1)
	d := netlist.MustGenerate(lib, netlist.DefaultGenConfig("abl", 500, 34))
	p := layout.MustNewFloorplan(tc, d, 0.7)
	if err := place.Global(p, place.Options{}); err != nil {
		t.Fatal(err)
	}
	aware := DefaultConfig(tc, tech.ClosedM1)
	mAware := routeAll(t, New(p, aware))
	plain := aware
	plain.M1CostFactor = 1.0
	mPlain := routeAll(t, New(p, plain))
	if mAware.LayerWL[tech.M1] < mPlain.LayerWL[tech.M1] {
		t.Errorf("aware router used less M1 (%d) than plain (%d)",
			mAware.LayerWL[tech.M1], mPlain.LayerWL[tech.M1])
	}
	if mAware.FailedConns != 0 || mPlain.FailedConns != 0 {
		t.Errorf("failed connections: aware %d plain %d", mAware.FailedConns, mPlain.FailedConns)
	}
}
