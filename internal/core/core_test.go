package core

import (
	"context"
	"testing"

	"vm1place/internal/cells"
	"vm1place/internal/geom"
	"vm1place/internal/layout"
	"vm1place/internal/netlist"
	"vm1place/internal/place"
	"vm1place/internal/tech"
)

// manual builds tiny hand-wired designs (mirrors the router test helper).
type manual struct{ d *netlist.Design }

func newManual(lib *cells.Library) *manual {
	return &manual{d: &netlist.Design{Name: "manual", Lib: lib}}
}

func (m *manual) addInst(master string) int {
	ms := m.d.Lib.MustMaster(master)
	inst := netlist.Instance{
		Name:    "u" + string(rune('a'+len(m.d.Insts))),
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

func (m *manual) connect(drvInst int, drvPin string, sinks ...[2]interface{}) int {
	ni := len(m.d.Nets)
	dp := m.pinIdx(drvInst, drvPin)
	net := netlist.Net{
		Name:   "n" + string(rune('a'+ni)),
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
					Name: "tie", Driver: netlist.Conn{Inst: -1},
					Sinks: []netlist.Conn{{Inst: ii, Pin: pi}},
				})
				m.d.AddPort(netlist.Port{
					Name: "tp", Net: ni, Input: true, Side: netlist.West, Pos: 0.5,
				})
			} else {
				m.d.Nets = append(m.d.Nets, netlist.Net{
					Name: "obs", Driver: netlist.Conn{Inst: ii, Pin: pi},
				})
				m.d.AddPort(netlist.Port{
					Name: "op", Net: ni, Input: false, Side: netlist.East, Pos: 0.5,
				})
			}
			inst.PinNets[pi] = ni
		}
	}
	if err := m.d.Validate(); err != nil {
		panic(err)
	}
}

func genPlaced(t *testing.T, arch tech.Arch, n int, seed int64, util float64) *layout.Placement {
	t.Helper()
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, arch)
	d := netlist.MustGenerate(lib, netlist.DefaultGenConfig("c", n, seed))
	p := layout.MustNewFloorplan(tc, d, util)
	if err := place.Global(p, place.Options{}); err != nil {
		t.Fatal(err)
	}
	return p
}

// mustVM1Opt runs VM1OptCtx under context.Background, failing the test
// on error.
func mustVM1Opt(t *testing.T, p *layout.Placement, prm Params, u Sequence) Result {
	t.Helper()
	res, err := VM1OptCtx(context.Background(), p, prm, u)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCalculateObjManualClosedM1(t *testing.T) {
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.ClosedM1)
	m := newManual(lib)
	u0 := m.addInst("INV_X1")
	u1 := m.addInst("INV_X1")
	m.connect(u0, "ZN", [2]interface{}{u1, "A"})
	m.tieOff()
	p := layout.MustNewFloorplan(tc, m.d, 0.05)
	p.SpreadEven()
	prm := DefaultParams(tc, tech.ClosedM1)

	// Aligned: ZN(u0)@site1, A(u1)@site1 with u1 at site 1.
	p.SetLoc(u0, 0, 0, false)
	p.SetLoc(u1, 1, 1, false)
	obj := CalculateObj(p, prm)
	if obj.Alignments != 1 {
		t.Errorf("aligned: Alignments = %d, want 1", obj.Alignments)
	}

	// Misaligned.
	p.SetLoc(u1, 3, 1, false)
	obj = CalculateObj(p, prm)
	if obj.Alignments != 0 {
		t.Errorf("misaligned: Alignments = %d, want 0", obj.Alignments)
	}

	// Aligned but beyond gamma rows.
	p.SetLoc(u1, 1, tc.Gamma+2, false)
	obj = CalculateObj(p, prm)
	if obj.Alignments != 0 {
		t.Errorf("beyond gamma: Alignments = %d, want 0", obj.Alignments)
	}
}

func TestCalculateObjManualOpenM1(t *testing.T) {
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.OpenM1)
	m := newManual(lib)
	u0 := m.addInst("INV_X1")
	u1 := m.addInst("INV_X1")
	m.connect(u0, "ZN", [2]interface{}{u1, "A"})
	m.tieOff()
	p := layout.MustNewFloorplan(tc, m.d, 0.05)
	p.SpreadEven()
	prm := DefaultParams(tc, tech.OpenM1)

	p.SetLoc(u0, 0, 0, false)
	p.SetLoc(u1, 0, 1, false)
	obj := CalculateObj(p, prm)
	if obj.Alignments != 1 {
		t.Errorf("overlapping: Alignments = %d, want 1", obj.Alignments)
	}
	if obj.OverlapSum <= 0 {
		t.Errorf("overlapping: OverlapSum = %d, want > 0", obj.OverlapSum)
	}

	p.SetLoc(u1, 8, 1, false)
	obj = CalculateObj(p, prm)
	if obj.Alignments != 0 {
		t.Errorf("disjoint: Alignments = %d, want 0", obj.Alignments)
	}
}

func TestWindowMILPAlignsPair(t *testing.T) {
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.ClosedM1)
	m := newManual(lib)
	u0 := m.addInst("INV_X1")
	u1 := m.addInst("INV_X1")
	m.connect(u0, "ZN", [2]interface{}{u1, "A"})
	m.tieOff()
	p := layout.MustNewFloorplan(tc, m.d, 0.05)
	p.SpreadEven()
	// Misaligned by 2 sites; within lx=3 of alignment.
	p.SetLoc(u0, 0, 0, false)
	p.SetLoc(u1, 3, 1, false)

	prm := DefaultParams(tc, tech.ClosedM1)
	ps := ParamSet{BW: p.DieWidth(), BH: p.DieHeight(), LX: 3, LY: 1}
	insts := []int{u0, u1}
	w := buildWindow(p, prm, p.DieRect(), ps, insts, true, false)
	if len(w.movable) != 2 {
		t.Fatalf("movable = %d, want 2", len(w.movable))
	}
	if len(w.pairs) == 0 {
		t.Fatal("no pairs built")
	}
	assign, _ := w.solve()
	if assign == nil {
		t.Fatal("window solve found no improvement")
	}
	// Apply and check alignment achieved.
	for ci, inst := range w.movable {
		cd := w.cand[ci][assign[ci]]
		p.SetLoc(inst, cd.site, cd.row, cd.flip)
	}
	obj := CalculateObj(p, prm)
	if obj.Alignments != 1 {
		t.Errorf("after MILP: Alignments = %d, want 1", obj.Alignments)
	}
	if err := p.CheckLegal(); err != nil {
		t.Errorf("illegal after MILP: %v", err)
	}
}

func TestWindowFlipPassAligns(t *testing.T) {
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.ClosedM1)
	m := newManual(lib)
	u0 := m.addInst("INV_X1")
	u1 := m.addInst("INV_X1")
	m.connect(u0, "ZN", [2]interface{}{u1, "A"})
	m.tieOff()
	p := layout.MustNewFloorplan(tc, m.d, 0.05)
	p.SpreadEven()
	// u0 ZN at site 1; u1 at site 0: A at site 0 unflipped, site 1 flipped.
	p.SetLoc(u0, 0, 0, false)
	p.SetLoc(u1, 0, 1, false)

	prm := DefaultParams(tc, tech.ClosedM1)
	ps := ParamSet{BW: p.DieWidth(), BH: p.DieHeight(), LX: 0, LY: 0}
	w := buildWindow(p, prm, p.DieRect(), ps, []int{u0, u1}, false, true)
	assign, _ := w.solve()
	if assign == nil {
		t.Fatal("flip pass found no improvement")
	}
	for ci, inst := range w.movable {
		cd := w.cand[ci][assign[ci]]
		p.SetLoc(inst, cd.site, cd.row, cd.flip)
	}
	if CalculateObj(p, prm).Alignments != 1 {
		t.Error("flip pass did not align the pair")
	}
}

func TestWindowOpenM1IncreasesOverlap(t *testing.T) {
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.OpenM1)
	m := newManual(lib)
	u0 := m.addInst("INV_X1")
	u1 := m.addInst("INV_X1")
	m.connect(u0, "ZN", [2]interface{}{u1, "A"})
	m.tieOff()
	p := layout.MustNewFloorplan(tc, m.d, 0.05)
	p.SpreadEven()
	p.SetLoc(u0, 0, 0, false)
	p.SetLoc(u1, 4, 1, false) // no overlap

	prm := DefaultParams(tc, tech.OpenM1)
	before := CalculateObj(p, prm)
	if before.Alignments != 0 {
		t.Fatalf("setup: Alignments = %d", before.Alignments)
	}
	ps := ParamSet{BW: p.DieWidth(), BH: p.DieHeight(), LX: 4, LY: 1}
	w := buildWindow(p, prm, p.DieRect(), ps, []int{u0, u1}, true, false)
	assign, _ := w.solve()
	if assign == nil {
		t.Fatal("OpenM1 window solve found no improvement")
	}
	for ci, inst := range w.movable {
		cd := w.cand[ci][assign[ci]]
		p.SetLoc(inst, cd.site, cd.row, cd.flip)
	}
	after := CalculateObj(p, prm)
	if after.Alignments != 1 {
		t.Errorf("after: Alignments = %d, want 1", after.Alignments)
	}
}

func TestPartitionCoversDie(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, 300, 51, 0.75)
	ps := ParamSet{BW: 2000, BH: 2000, LX: 2, LY: 1}
	for _, shift := range []int64{0, 1000, 700} {
		rects, nwx, nwy := partition(p, ps, shift, shift)
		if len(rects) != nwx*nwy {
			t.Fatalf("rects = %d, want %d", len(rects), nwx*nwy)
		}
		// Every die point must be in exactly one window.
		for _, pt := range []geom.Point{
			{X: 0, Y: 0},
			{X: p.DieWidth() - 1, Y: p.DieHeight() - 1},
			{X: p.DieWidth() / 2, Y: p.DieHeight() / 3},
		} {
			count := 0
			for _, r := range rects {
				if r.Contains(pt) {
					count++
				}
			}
			if count != 1 {
				t.Errorf("shift %d: point %v in %d windows", shift, pt, count)
			}
		}
	}
}

func TestDiagonalFamiliesDisjoint(t *testing.T) {
	// Recompute the family grouping logic and verify disjoint projections
	// (the Figure 3/4 invariant).
	nwx, nwy := 5, 3
	d := nwx
	if nwy > d {
		d = nwy
	}
	for f := 0; f < d; f++ {
		var is, js []int
		for wj := 0; wj < nwy; wj++ {
			for wi := 0; wi < nwx; wi++ {
				if ((wi-wj)%d+d)%d == f {
					is = append(is, wi)
					js = append(js, wj)
				}
			}
		}
		seenI := map[int]bool{}
		seenJ := map[int]bool{}
		for k := range is {
			if seenI[is[k]] || seenJ[js[k]] {
				t.Fatalf("family %d shares a projection: is=%v js=%v", f, is, js)
			}
			seenI[is[k]] = true
			seenJ[js[k]] = true
		}
	}
}

func TestDistOptPreservesLegality(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, 400, 52, 0.75)
	prm := DefaultParams(p.Tech, tech.ClosedM1)
	prm.MaxNodes = 50
	ps := ParamSet{BW: 2000, BH: 2000, LX: 3, LY: 1}
	if _, err := DistOpt(context.Background(), p, prm, ps, 0, 0, true, false); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckLegal(); err != nil {
		t.Fatalf("illegal after DistOpt: %v", err)
	}
	if _, err := DistOpt(context.Background(), p, prm, ps, 1000, 1000, false, true); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckLegal(); err != nil {
		t.Fatalf("illegal after flip DistOpt: %v", err)
	}
}

func TestVM1OptImprovesObjective(t *testing.T) {
	for _, arch := range []tech.Arch{tech.ClosedM1, tech.OpenM1} {
		p := genPlaced(t, arch, 500, 53, 0.75)
		prm := DefaultParams(p.Tech, arch)
		prm.MaxNodes = 60
		prm.MaxOuterIters = 2
		u := Sequence{{BW: 2000, BH: 2000, LX: 3, LY: 1}}
		res := mustVM1Opt(t, p, prm, u)
		if err := p.CheckLegal(); err != nil {
			t.Fatalf("%s: illegal after VM1Opt: %v", arch, err)
		}
		if res.Final.Value > res.Initial.Value {
			t.Errorf("%s: objective worsened: %f -> %f", arch, res.Initial.Value, res.Final.Value)
		}
		if res.Final.Alignments <= res.Initial.Alignments {
			t.Errorf("%s: alignments did not increase: %d -> %d",
				arch, res.Initial.Alignments, res.Final.Alignments)
		}
		if res.Iters == 0 || len(res.History) != res.Iters {
			t.Errorf("%s: bad iteration accounting: %+v", arch, res)
		}
	}
}

func TestVM1OptAlphaZeroReducesHPWL(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, 500, 54, 0.75)
	prm := DefaultParams(p.Tech, tech.ClosedM1)
	prm.Alpha = 0 // pure HPWL-driven detailed placement (the baseline)
	prm.MaxNodes = 60
	prm.MaxOuterIters = 2
	res := mustVM1Opt(t, p, prm, Sequence{{BW: 2000, BH: 2000, LX: 3, LY: 1}})
	if res.Final.HPWL >= res.Initial.HPWL {
		t.Errorf("alpha=0 did not reduce HPWL: %d -> %d", res.Initial.HPWL, res.Final.HPWL)
	}
}

// TestGreedyFallbackWorks reaches the greedy fallback through one window
// over the whole die, whose movable cells exceed maxMILPCells while its
// candidates stay within maxMILPBins: the window must build no MILP, and
// its assignment must be legal and raise the design's alignments without
// worsening its objective.
func TestGreedyFallbackWorks(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, 500, 55, 0.75)
	prm := DefaultParams(p.Tech, tech.ClosedM1)
	all := make([]int, len(p.Design.Insts))
	for i := range all {
		all[i] = i
	}
	die := geom.Rect{XHi: p.DieWidth(), YHi: p.DieHeight()}
	w := buildWindow(p, prm, die, ParamSet{LX: 2}, all, true, false)
	nBin := 0
	for _, cs := range w.cand {
		nBin += len(cs)
	}
	if len(w.movable) <= maxMILPCells || nBin > maxMILPBins {
		t.Fatalf("setup: %d movable cells and %d candidates, want more than %d cells and at most %d candidates",
			len(w.movable), nBin, maxMILPCells, maxMILPBins)
	}
	assign, work := w.solve()
	if work != (milpWork{}) {
		t.Fatalf("a window of %d cells ran a MILP: %+v", len(w.movable), work)
	}
	if assign == nil || !w.feasibleAssign(assign) {
		t.Fatalf("greedy returned no legal improvement: %v", assign)
	}
	before := CalculateObj(p, prm)
	for ci, inst := range w.movable {
		cd := w.cand[ci][assign[ci]]
		p.SetLoc(inst, cd.site, cd.row, cd.flip)
	}
	if err := p.CheckLegal(); err != nil {
		t.Fatalf("illegal after the greedy window: %v", err)
	}
	after := CalculateObj(p, prm)
	if after.Value > before.Value {
		t.Errorf("greedy worsened objective: %f -> %f", before.Value, after.Value)
	}
	if after.Alignments <= before.Alignments {
		t.Errorf("greedy did not increase alignments: %d -> %d", before.Alignments, after.Alignments)
	}
}

func TestHigherAlphaMoreAlignments(t *testing.T) {
	run := func(alpha float64) Objective {
		p := genPlaced(t, tech.ClosedM1, 400, 56, 0.75)
		prm := DefaultParams(p.Tech, tech.ClosedM1)
		prm.Alpha = alpha
		prm.MaxNodes = 60
		prm.MaxOuterIters = 1
		return mustVM1Opt(t, p, prm, Sequence{{BW: 2000, BH: 2000, LX: 3, LY: 1}}).Final
	}
	low := run(0)
	high := run(4000)
	if high.Alignments <= low.Alignments {
		t.Errorf("alpha 4000 alignments %d not above alpha 0 alignments %d",
			high.Alignments, low.Alignments)
	}
}

func TestWindowCandidatesIncludeCurrent(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, 200, 57, 0.75)
	prm := DefaultParams(p.Tech, tech.ClosedM1)
	ps := ParamSet{BW: 2000, BH: 2000, LX: 2, LY: 1}
	rects, _, _ := partition(p, ps, 0, 0)
	buckets := bucketInsts(p, ps, 0, 0, 1, 1)
	_ = buckets
	all := make([]int, len(p.Design.Insts))
	for i := range all {
		all[i] = i
	}
	for _, r := range rects {
		w := buildWindow(p, prm, r, ps, all, true, false)
		for ci, inst := range w.movable {
			cd := w.cand[ci][w.curCand[ci]]
			if cd.site != p.SiteX[inst] || cd.row != p.Row[inst] || cd.flip != p.Flip[inst] {
				t.Fatalf("curCand mismatch for inst %d", inst)
			}
		}
	}
}
