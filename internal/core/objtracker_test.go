package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"vm1place/internal/tech"
)

// requireObjEqual fails unless the tracker's objective is exactly the
// oracle's — integer fields identical and Value bit-identical (the tracker
// re-sums the weighted HPWL in net order precisely so the float result
// matches a fresh scan).
func requireObjEqual(t *testing.T, stage string, tr *ObjTracker) {
	t.Helper()
	got := tr.Objective()
	want := CalculateObj(tr.p, tr.prm)
	if got.HPWL != want.HPWL || got.Alignments != want.Alignments ||
		got.OverlapSum != want.OverlapSum || got.Value != want.Value {
		t.Fatalf("%s: tracker diverged from CalculateObj:\n got %+v\nwant %+v",
			stage, got, want)
	}
}

// TestObjTrackerMatchesOptimizerPasses drives the incremental tracker
// through real DistOpt passes — perturb, flips-only, and grid offsets that
// create clipped boundary windows — on both architectures, checking exact
// agreement with the full rescan after every pass.
func TestObjTrackerMatchesOptimizerPasses(t *testing.T) {
	for _, arch := range []tech.Arch{tech.ClosedM1, tech.OpenM1} {
		p := genPlaced(t, arch, 400, 91, 0.75)
		prm := DefaultParams(p.Tech, arch)
		prm.MaxNodes = 40
		prm.TimeLimit = 100 * time.Millisecond
		tr := NewObjTracker(p, prm)
		requireObjEqual(t, arch.String()+"/initial", tr)

		ps := ParamSet{BW: 2000, BH: 2000, LX: 3, LY: 1}
		pool := newSolverPool(workersOf(prm))
		var tx, ty int64
		for it := 0; it < 3; it++ {
			g := makeGrid(p, ps, tx, ty)
			distPass(context.Background(), tr, ps, g, pool, true, false)
			requireObjEqual(t, arch.String()+"/perturb", tr)
			distPass(context.Background(), tr, ps, g, pool, false, true)
			requireObjEqual(t, arch.String()+"/flip", tr)
			// Half-window shifts produce clipped windows on the die
			// boundary next iteration (Section 4.2 coverage).
			tx += ps.BW / 2
			ty += ps.BH / 2
		}
		if err := p.CheckLegal(); err != nil {
			t.Fatalf("%s: illegal after tracked passes: %v", arch, err)
		}
	}
}

// TestObjTrackerMatchesRandomMoves fuzzes ApplyMoves with arbitrary
// batched relocations and orientation flips (legality is irrelevant to the
// objective identity) and checks exact agreement after every batch.
func TestObjTrackerMatchesRandomMoves(t *testing.T) {
	for _, arch := range []tech.Arch{tech.ClosedM1, tech.OpenM1} {
		p := genPlaced(t, arch, 200, 17, 0.7)
		prm := DefaultParams(p.Tech, arch)
		tr := NewObjTracker(p, prm)
		rng := rand.New(rand.NewSource(99))
		for batch := 0; batch < 20; batch++ {
			n := 1 + rng.Intn(8)
			moves := make([]Move, 0, n)
			for k := 0; k < n; k++ {
				i := rng.Intn(len(p.Design.Insts))
				wi := p.Design.Insts[i].Master.WidthSites
				moves = append(moves, Move{
					Inst: i,
					Site: rng.Intn(p.NumSites - wi + 1),
					Row:  rng.Intn(p.NumRows),
					Flip: rng.Intn(2) == 0,
				})
			}
			tr.ApplyMoves(moves)
			requireObjEqual(t, arch.String()+"/random", tr)
		}
	}
}

// TestObjTrackerFullRun checks the tracker that VM1Opt carries internally:
// the Result objectives it reports must match fresh rescans of the final
// placement.
func TestObjTrackerFullRun(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, 300, 23, 0.75)
	prm := DefaultParams(p.Tech, tech.ClosedM1)
	prm.MaxNodes = 40
	prm.TimeLimit = 100 * time.Millisecond
	prm.MaxOuterIters = 2
	res := mustVM1Opt(t, p, prm, Sequence{{BW: 2000, BH: 2000, LX: 3, LY: 1}})
	want := CalculateObj(p, prm)
	if res.Final != want {
		t.Fatalf("VM1Opt final objective diverged from rescan:\n got %+v\nwant %+v",
			res.Final, want)
	}
}
