package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vm1place/internal/cells"
	"vm1place/internal/geom"
	"vm1place/internal/layout"
	"vm1place/internal/lp"
	"vm1place/internal/netlist"
	"vm1place/internal/objective"
	"vm1place/internal/tech"
)

// pruneCands keeps, for each movable cell of a window built by buildGeom,
// its current candidate plus up to keep-1 others drawn by rng, in their
// original order. It runs before buildNetsPairs, which then sees only the
// kept candidates.
func pruneCands(w *window, rng *rand.Rand, keep int) {
	for ci, cs := range w.cand {
		sel := make([]bool, len(cs))
		sel[w.curCand[ci]] = true
		n := 1
		for _, k := range rng.Perm(len(cs)) {
			if n < keep && !sel[k] {
				sel[k] = true
				n++
			}
		}
		var kept []cand
		for k, c := range cs {
			if !sel[k] {
				continue
			}
			if k == w.curCand[ci] {
				w.curCand[ci] = len(kept)
			}
			kept = append(kept, c)
		}
		w.cand[ci] = kept
	}
}

// bruteMin is the least window objective over every overlap-free
// assignment, enumerated exhaustively, and how many pairs it realizes.
func bruteMin(w *window) (best float64, pairs int) {
	best = math.Inf(1)
	assign := make([]int, len(w.movable))
	for {
		if w.feasibleAssign(assign) {
			if v := w.objective(assign); v < best {
				best, pairs = v, 0
				for _, pr := range w.pairs {
					if hit, _ := w.pairState(pr, assign); hit {
						pairs++
					}
				}
			}
		}
		ci := 0
		for ; ci < len(assign); ci++ {
			if assign[ci]++; assign[ci] < len(w.cand[ci]) {
				break
			}
			assign[ci] = 0
		}
		if ci == len(assign) {
			return best, pairs
		}
	}
}

// windowMode is one kind of DistOpt window: the joint move-and-flip
// window with ly = 1, Algorithm 1's perturbation pass with ly = 0 (every
// candidate on its cell's row, so each net's y axis is constant and folds
// into the offset K), and its flip-only pass.
type windowMode struct {
	name      string
	ps        ParamSet
	move, flp bool
}

var windowModes = []windowMode{
	{"move+flip", ParamSet{BW: 600, BH: 500, LX: 2, LY: 1}, true, true},
	{"ly=0", ParamSet{BW: 600, BH: 500, LX: 2, LY: 0}, true, false},
	{"flip-only", ParamSet{BW: 600, BH: 500, LX: 2, LY: 1}, false, true},
}

// presolved counts what buildModel left out of a window's model: the net
// bound sides folded into K (four per net less the bound variables, read
// as the variables with an infinite bound), and the occupancy rows
// dropped (sites that two or more candidate footprints cover, less the
// Σλ ≤ 1 rows over λ alone).
func presolved(w *window, md *lp.Model, lambda [][]int) (folded, dropped int) {
	lo, hi := md.Bounds()
	folded = 4 * len(w.nets)
	for j := range lo {
		if math.IsInf(lo[j], -1) || math.IsInf(hi[j], 1) {
			folded--
		}
	}
	cover := make([]int, len(w.blocked))
	for ci, i := range w.movable {
		wi := w.p.Design.Insts[i].Master.WidthSites
		for _, cd := range w.cand[ci] {
			for s := cd.site; s < cd.site+wi; s++ {
				cover[w.occIdx(cd.row, s)]++
			}
		}
	}
	for _, n := range cover {
		if n > 1 {
			dropped++
		}
	}
	isLambda := map[int]bool{}
	for _, g := range lambda {
		for _, j := range g {
			isLambda[j] = true
		}
	}
rows:
	for i := range md.NumRows() {
		sense, rhs, terms := md.Row(i)
		if sense != lp.LE || rhs != 1 {
			continue
		}
		for _, tm := range terms {
			if !isLambda[tm.Var] || tm.Coef != 1 {
				continue rows
			}
		}
		dropped--
	}
	return folded, dropped
}

// TestWindowMILPVsBrute is the window MILP's exactness gate on real
// windows: for every registered objective, small windows (at most four
// movable cells, five candidates each) of every window mode, cut from a
// placed design, must be solved, untimed, to the least window objective
// over every overlap-free assignment. It holds whatever rows the model
// adds or leaves out, as long as the model keeps every realizable
// assignment and scores it exactly. Each objective's windows must fold a
// net bound side into K and drop an occupancy row, so the presolved
// paths of buildModel are checked too.
func TestWindowMILPVsBrute(t *testing.T) {
	wantWindows := map[string]int{"move+flip": 60, "ly=0": 30, "flip-only": 30}
	for _, name := range objective.Names() {
		t.Run(name, func(t *testing.T) {
			o, err := objective.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			p := genPlaced(t, o.Arch(), 200, 71, 0.75)
			prm := objectiveParams(p, o)
			prm.MaxNodes = 0 // the milp default, far above these trees
			prm.TimeLimit = 0
			rng := rand.New(rand.NewSource(72))
			improved, withPairs, folded, dropped := 0, 0, 0, 0
			for _, mode := range windowModes {
				solved := 0
				for _, off := range []int64{0, 300, 150} {
					g := makeGrid(p, mode.ps, off, off)
					for wid, rect := range g.rects {
						if solved == wantWindows[mode.name] {
							break
						}
						w := &window{}
						w.buildGeom(p, prm, rect, mode.ps, g.buckets[wid], mode.move, mode.flp)
						if len(w.movable) == 0 || len(w.movable) > 4 {
							continue
						}
						pruneCands(w, rng, 5)
						w.buildNetsPairs()
						if len(w.pairs) == 0 {
							continue
						}
						tag := fmt.Sprintf("%s offset %d window %d (%d cells, %d pairs)",
							mode.name, off, wid, len(w.movable), len(w.pairs))
						md, _, lambda, _ := w.buildModel()
						f, d := presolved(w, md, lambda)
						folded += f
						dropped += d
						want, pairs := bruteMin(w)
						assign, work := w.solveMILP()
						if work.capped != 0 {
							t.Fatalf("%s: the untimed MILP stopped after %d nodes", tag, work.nodes)
						}
						if assign == nil {
							assign = w.curCand
						}
						if !w.feasibleAssign(assign) {
							t.Fatalf("%s: MILP assignment %v overlaps", tag, assign)
						}
						if got := w.objective(assign); math.Abs(got-want) > 1e-6 {
							t.Fatalf("%s: MILP objective %.6f, brute-force minimum %.6f", tag, got, want)
						}
						solved++
						if want < w.objective(w.curCand)-1e-6 {
							improved++
						}
						if pairs > 0 {
							withPairs++
						}
					}
				}
				if solved < wantWindows[mode.name] {
					t.Fatalf("%s: checked %d windows, want %d", mode.name, solved, wantWindows[mode.name])
				}
			}
			if improved == 0 || withPairs == 0 || folded == 0 || dropped == 0 {
				t.Fatalf("%d windows improvable, %d with a pair at the optimum, %d bound sides folded, %d occupancy rows dropped: want each above 0",
					improved, withPairs, folded, dropped)
			}
		})
	}
}

// modelHPWL evaluates the net bound part of a window model at an
// assignment by reading its rows, not by solving it: every vmax (the
// variables with an infinite upper bound) takes the least value its lower
// bound and its rows allow, every vmin (an infinite lower bound) the
// largest, and the result is Σ vmax − Σ vmin. A bound row must hold one
// bound variable and λ terms only.
func modelHPWL(t *testing.T, md *lp.Model, lambda [][]int, assign []int) float64 {
	t.Helper()
	lo, hi := md.Bounds()
	x := make([]float64, md.NumVars())
	isLambda := make([]bool, md.NumVars())
	for ci, g := range lambda {
		for k, j := range g {
			isLambda[j] = true
			if k == assign[ci] {
				x[j] = 1
			}
		}
	}
	isMax := func(j int) bool { return math.IsInf(hi[j], 1) }
	isMin := func(j int) bool { return math.IsInf(lo[j], -1) }
	val := make([]float64, md.NumVars())
	for j := range val {
		switch {
		case isMax(j):
			val[j] = lo[j]
		case isMin(j):
			val[j] = hi[j]
		}
	}
	for i := range md.NumRows() {
		sense, rhs, terms := md.Row(i)
		b := -1
		for _, tm := range terms {
			if isMax(tm.Var) || isMin(tm.Var) {
				b = tm.Var
			}
		}
		if b < 0 {
			continue
		}
		rest, coef := 0.0, 0.0
		for _, tm := range terms {
			switch {
			case tm.Var == b:
				coef = tm.Coef
			case isLambda[tm.Var]:
				rest += tm.Coef * x[tm.Var]
			default:
				t.Fatalf("bound row %d holds variable %d, neither λ nor its bound variable", i, tm.Var)
			}
		}
		bound := (rhs - rest) / coef
		switch {
		case isMax(b) && sense == lp.GE && coef > 0:
			val[b] = math.Max(val[b], bound)
		case isMin(b) && sense == lp.LE && coef > 0:
			val[b] = math.Min(val[b], bound)
		default:
			t.Fatalf("bound row %d: %v with coefficient %g on its bound variable", i, sense, coef)
		}
	}
	total := 0.0
	for j, v := range val {
		switch {
		case isMax(j):
			total += v
		case isMin(j):
			total -= v
		}
	}
	return total
}

// randomLegal draws an overlap-free assignment, placing the window's
// cells in random order, each on a random candidate that is still free.
// It returns nil when a cell is left with no free candidate.
func randomLegal(w *window, rng *rand.Rand) []int {
	occ := append([]bool(nil), w.blocked...)
	assign := make([]int, len(w.movable))
	for _, ci := range rng.Perm(len(w.movable)) {
		wi := w.p.Design.Insts[w.movable[ci]].Master.WidthSites
		var free []int
	cands:
		for k, cd := range w.cand[ci] {
			for s := cd.site; s < cd.site+wi; s++ {
				if occ[w.occIdx(cd.row, s)] {
					continue cands
				}
			}
			free = append(free, k)
		}
		if len(free) == 0 {
			return nil
		}
		assign[ci] = free[rng.Intn(len(free))]
		cd := w.cand[ci][assign[ci]]
		for s := cd.site; s < cd.site+wi; s++ {
			occ[w.occIdx(cd.row, s)] = true
		}
	}
	return assign
}

// TestWindowModelEvaluatesAssignments checks that the net bound rows
// buildModel keeps, together with its offset K, score every legal
// assignment's HPWL exactly: for every registered objective and window
// mode, over real windows with their full candidate lists, the kept rows
// evaluated at random legal assignments (modelHPWL) plus K must equal the
// HPWL part of w.objective. A bound row left out while it can bind, or a
// side folded into K with the wrong constant, shows as a difference.
func TestWindowModelEvaluatesAssignments(t *testing.T) {
	for _, name := range objective.Names() {
		t.Run(name, func(t *testing.T) {
			o, err := objective.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			p := genPlaced(t, o.Arch(), 200, 73, 0.75)
			prm := objectiveParams(p, o)
			rng := rand.New(rand.NewSource(74))
			for _, mode := range windowModes {
				checked, folded := 0, 0
				for _, off := range []int64{0, 200} {
					g := makeGrid(p, mode.ps, off, off)
					for wid, rect := range g.rects {
						w := buildWindow(p, prm, rect, mode.ps, g.buckets[wid], mode.move, mode.flp)
						if len(w.movable) == 0 {
							continue
						}
						md, _, lambda, constK := w.buildModel()
						f, _ := presolved(w, md, lambda)
						folded += f
						for range 5 {
							assign := randomLegal(w, rng)
							if assign == nil {
								continue
							}
							want := 0.0
							for _, wn := range w.nets {
								want += float64(w.netWL(wn, assign))
							}
							if got := modelHPWL(t, md, lambda, assign) + constK; got != want {
								t.Fatalf("%s offset %d window %d, assignment %v: bound rows + K = %v, HPWL %v",
									mode.name, off, wid, assign, got, want)
							}
							checked++
						}
					}
				}
				if checked < 50 || folded == 0 {
					t.Fatalf("%s: %d assignments checked (want 50), %d bound sides folded", mode.name, checked, folded)
				}
			}
		})
	}
}

// TestPairSupportRows checks the pair support of buildPairs and the
// support rows of buildModel on a ClosedM1 pair: u0's output ZN, a fixed
// terminal on track T, and u1's input A, movable along a pruned candidate
// list. u0 is left out of the window's instance list, so it is neither
// movable nor blocking there.
func TestPairSupportRows(t *testing.T) {
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.ClosedM1)
	m := newManual(lib)
	u0 := m.addInst("INV_X1")
	u1 := m.addInst("INV_X1")
	m.connect(u0, "ZN", [2]interface{}{u1, "A"})
	m.tieOff()
	p := layout.MustNewFloorplan(tc, m.d, 0.05)
	p.SpreadEven()
	zn := netlist.Conn{Inst: u0, Pin: m.pinIdx(u0, "ZN")}
	a := netlist.Conn{Inst: u1, Pin: m.pinIdx(u1, "A")}
	prm := DefaultParams(tc, tech.ClosedM1)
	pitch := tc.SiteWidth

	// build builds u1's window over rows [r0, r1), keeping u1's current
	// candidate and those whose A track and row keep accepts.
	build := func(r0, r1 int, keep func(x int64, row int) bool) *window {
		t.Helper()
		rect := geom.Rect{XLo: 0, YLo: tc.RowY(r0), XHi: p.DieWidth(), YHi: tc.RowY(r1)}
		w := &window{}
		w.buildGeom(p, prm, rect, ParamSet{LX: 2, LY: 2}, []int{u1}, true, false)
		var kept []cand
		for k, cd := range w.cand[0] {
			g, _ := pinGeomAt(p, a, cd.site, cd.row, cd.flip)
			if k == w.curCand[0] {
				w.curCand[0] = len(kept)
			} else if !keep(g.AlignX, cd.row) {
				continue
			}
			kept = append(kept, cd)
		}
		w.cand[0] = kept
		w.buildNetsPairs()
		return w
	}

	t.Run("empty support", func(t *testing.T) {
		// T on row 0; A can reach T−pitch and T+pitch on row 1, never T.
		p.SetLoc(u0, 4, 0, false)
		p.SetLoc(u1, 4, 1, false)
		gT, _ := pinGeomAt(p, zn, 4, 0, false)
		T := gT.AlignX
		if gA, _ := pinGeomAt(p, a, 4, 1, false); gA.AlignX != T-pitch {
			t.Fatalf("setup: A on track %d, want T−pitch = %d", gA.AlignX, T-pitch)
		}
		w := build(1, 2, func(x int64, row int) bool { return x == T+pitch })
		if len(w.cand[0]) != 2 {
			t.Fatalf("setup: %d candidates, want 2", len(w.cand[0]))
		}
		views := [2]objective.PinView{}
		for _, wn := range w.nets {
			for _, tm := range wn.terms {
				switch tm.conn {
				case a:
					views[0] = tm.PinView
				case zn:
					views[1] = tm.PinView
				}
			}
		}
		if !w.rule.feasible(views[0], views[1]) {
			t.Fatal("setup: the range test must pass, or the pair is pruned before its support is read")
		}
		if len(w.pairs) != 0 {
			t.Fatalf("a pair no candidate realizes was built (%d pairs)", len(w.pairs))
		}
	})

	t.Run("partial support", func(t *testing.T) {
		// T on row 1. A sits on row 2 at T−pitch and may go to T+pitch on
		// row 2, or to T on row 0 (further from u1's east port, which pulls
		// it up). Only the row-0 candidate realizes the pair; at row 2 an
		// even mix of T±pitch puts A's track on T on average, which the
		// big-G rows accept as d = 1.
		p.SetLoc(u0, 4, 1, false)
		p.SetLoc(u1, 4, 2, false)
		gT, _ := pinGeomAt(p, zn, 4, 1, false)
		T := gT.AlignX
		w := build(0, 3, func(x int64, row int) bool {
			return (row == 2 && x == T+pitch) || (row == 0 && x == T)
		})
		if len(w.cand[0]) != 3 || len(w.pairs) != 1 {
			t.Fatalf("setup: %d candidates and %d pairs, want 3 and 1", len(w.cand[0]), len(w.pairs))
		}
		var sup []int // A's support, read from the geometry
		for k, cd := range w.cand[0] {
			if g, _ := pinGeomAt(p, a, cd.site, cd.row, cd.flip); g.AlignX == T && cd.row == 0 {
				sup = append(sup, k)
			}
		}
		if len(sup) != 1 {
			t.Fatalf("setup: support %v, want one candidate", sup)
		}
		md, mm, lambda, _ := w.buildModel()
		d := -1 // the pair's reward variable: the one integer outside the λ groups
		inGroup := map[int]bool{}
		for _, g := range mm.Groups {
			for _, j := range g {
				inGroup[j] = true
			}
		}
		for _, j := range mm.Ints {
			if !inGroup[j] {
				d = j
			}
		}
		sol := md.Solve()
		if sol.Status != lp.Optimal {
			t.Fatalf("root relaxation: %v", sol.Status)
		}
		inSup := 0.0
		for _, k := range sup {
			inSup += sol.X[lambda[0][k]]
		}
		if sol.X[d] > inSup+1e-5 {
			t.Fatalf("root relaxation sets d = %.4f above Σ λ over the support = %.4f", sol.X[d], inSup)
		}
	})
}
