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

// TestWindowMILPVsBrute is the window MILP's exactness gate on real
// windows: for every registered objective, small windows (at most four
// movable cells, five candidates each, moves and flips together) cut from
// a placed design must be solved, untimed, to the least window objective
// over every overlap-free assignment. It holds whatever rows the model
// adds, as long as none cuts off a realizable assignment.
func TestWindowMILPVsBrute(t *testing.T) {
	const wantWindows = 60
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
			ps := ParamSet{BW: 600, BH: 500, LX: 2, LY: 1}
			rng := rand.New(rand.NewSource(72))
			solved, improved, withPairs := 0, 0, 0
			for _, off := range []int64{0, 300, 150} {
				g := makeGrid(p, ps, off, off)
				for wid, rect := range g.rects {
					if solved == wantWindows {
						break
					}
					w := &window{}
					w.buildGeom(p, prm, rect, ps, g.buckets[wid], true, true)
					if len(w.movable) == 0 || len(w.movable) > 4 {
						continue
					}
					pruneCands(w, rng, 5)
					w.buildNetsPairs()
					if len(w.pairs) == 0 {
						continue
					}
					tag := fmt.Sprintf("offset %d window %d (%d cells, %d pairs)", off, wid, len(w.movable), len(w.pairs))
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
			if solved < wantWindows || improved == 0 || withPairs == 0 {
				t.Fatalf("checked %d windows (want %d), %d improvable, %d with a pair at the optimum",
					solved, wantWindows, improved, withPairs)
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
