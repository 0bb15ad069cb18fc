package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"vm1place/internal/objective"
	"vm1place/internal/tech"
)

// TestWindowObjectiveMatchesGlobalDelta: for a single whole-die window,
// the window objective delta between two assignments equals the global
// CalculateObj delta (no fixed-terminal approximation error is possible),
// for every registered objective with and without flip candidates. The
// window and the rescan read pins through the same pinGeomAt and pairRule;
// this is the check that they score the same geometry.
func TestWindowObjectiveMatchesGlobalDelta(t *testing.T) {
	const wantChecks = 40
	for _, name := range objective.Names() {
		o, err := objective.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, allowFlip := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/flip=%v", name, allowFlip), func(t *testing.T) {
				p := genPlaced(t, o.Arch(), 120, 61, 0.6)
				prm := objectiveParams(p, o)
				ps := ParamSet{BW: p.DieWidth(), BH: p.DieHeight(), LX: 2, LY: 1}
				all := make([]int, len(p.Design.Insts))
				for i := range all {
					all[i] = i
				}
				w := buildWindow(p, prm, p.DieRect(), ps, all, true, allowFlip)
				if len(w.movable) != len(p.Design.Insts) {
					t.Fatalf("whole-die window must hold every cell (%d vs %d)",
						len(w.movable), len(p.Design.Insts))
				}

				globalOf := func(assign []int) Objective {
					q := p.Clone()
					for ci, inst := range w.movable {
						cd := w.cand[ci][assign[ci]]
						q.SetLoc(inst, cd.site, cd.row, cd.flip)
					}
					return CalculateObj(q, prm)
				}

				rng := rand.New(rand.NewSource(7))
				base := append([]int(nil), w.curCand...)
				baseGlobal := globalOf(base)
				checked, pairMoves := 0, 0
				for trial := 0; trial < 5000 && checked < wantChecks; trial++ {
					alt := append([]int(nil), base...)
					// Random feasible single-cell change.
					ci := rng.Intn(len(w.movable))
					alt[ci] = rng.Intn(len(w.cand[ci]))
					if alt[ci] == base[ci] || !w.feasibleAssign(alt) {
						continue
					}
					checked++
					g := globalOf(alt)
					if g.Alignments != baseGlobal.Alignments {
						pairMoves++
					}
					dWin := w.objective(alt) - w.objective(base)
					dGlobal := g.Value - baseGlobal.Value
					if diff := dWin - dGlobal; diff > 1e-6 || diff < -1e-6 {
						t.Fatalf("trial %d: window delta %f != global delta %f", trial, dWin, dGlobal)
					}
				}
				if checked < wantChecks {
					t.Fatalf("only %d feasible changes checked, want %d", checked, wantChecks)
				}
				if pairMoves == 0 {
					t.Fatalf("none of %d changes made or broke a pair: the pair terms went unchecked", checked)
				}
			})
		}
	}
}

// TestRepairAlwaysFeasible: the rounder's repair produces occupancy-free
// assignments from arbitrary fractional starting points.
func TestRepairAlwaysFeasible(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, 300, 62, 0.8)
	prm := DefaultParams(p.Tech, tech.ClosedM1)
	ps := ParamSet{BW: 2000, BH: 2000, LX: 3, LY: 1}
	rects, nwx, nwy := partition(p, ps, 0, 0)
	buckets := bucketInsts(p, ps, 0, 0, nwx, nwy)
	rng := rand.New(rand.NewSource(8))
	for wi, rect := range rects {
		w := buildWindow(p, prm, rect, ps, buckets[wi], true, false)
		if len(w.movable) == 0 {
			continue
		}
		m, _, lambda, _ := w.buildModel()
		for trial := 0; trial < 5; trial++ {
			// Random fractional x and a random (possibly conflicting)
			// assignment decoded from it.
			x := make([]float64, m.NumVars())
			assign := make([]int, len(w.movable))
			for ci := range w.movable {
				assign[ci] = rng.Intn(len(w.cand[ci]))
				for k := range w.cand[ci] {
					x[lambda[ci][k]] = rng.Float64()
				}
			}
			if w.repair(assign, x, lambda) {
				if !w.feasibleAssign(assign) {
					t.Fatalf("window %d: repair returned infeasible assignment", wi)
				}
			}
		}
	}
}

// TestJointModePreservesLegality: the joint move+flip ablation variant
// keeps placements legal and does not worsen the objective.
func TestJointModePreservesLegality(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, 400, 63, 0.75)
	prm := DefaultParams(p.Tech, tech.ClosedM1)
	prm.MaxNodes = 60
	prm.MaxOuterIters = 1
	res, err := VM1OptJointCtx(context.Background(), p, prm, Sequence{{BW: 2000, BH: 2000, LX: 2, LY: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckLegal(); err != nil {
		t.Fatalf("illegal after joint VM1Opt: %v", err)
	}
	if res.Final.Value > res.Initial.Value {
		t.Errorf("joint mode worsened objective: %f -> %f",
			res.Initial.Value, res.Final.Value)
	}
}

// TestOpenM1OverlapSumNonNegative: the overlap surplus accounting never
// goes negative under optimization.
func TestOpenM1OverlapSumNonNegative(t *testing.T) {
	p := genPlaced(t, tech.OpenM1, 300, 64, 0.75)
	prm := DefaultParams(p.Tech, tech.OpenM1)
	prm.MaxNodes = 40
	prm.MaxOuterIters = 1
	res := mustVM1Opt(t, p, prm, Sequence{{BW: 2000, BH: 2000, LX: 2, LY: 1}})
	if res.Initial.OverlapSum < 0 || res.Final.OverlapSum < 0 {
		t.Errorf("negative overlap sum: %+v", res)
	}
	for _, h := range res.History {
		if h.OverlapSum < 0 {
			t.Errorf("negative overlap sum in history: %+v", h)
		}
	}
}

// TestParamsAlignGamma: every objective's pair row window is one row for
// ClosedM1 geometry (paper Constraint 4) and the technology's γ otherwise
// (Constraint 12), on the default γ and a smaller one.
func TestParamsAlignGamma(t *testing.T) {
	gamma2 := *tech.Default()
	gamma2.Gamma = 2
	for _, name := range objective.Names() {
		o, err := objective.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []*tech.Tech{tech.Default(), &gamma2} {
			want := tc.Gamma
			if o.Arch() == tech.ClosedM1 {
				want = 1
			}
			if got := pairRows(o, tc); got != want {
				t.Errorf("%s at gamma %d: pair window = %d, want %d", name, tc.Gamma, got, want)
			}
		}
	}
}
