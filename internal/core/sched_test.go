package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vm1place/internal/cells"
	"vm1place/internal/layout"
	"vm1place/internal/lp"
	"vm1place/internal/netlist"
	"vm1place/internal/objective"
	"vm1place/internal/place"
	"vm1place/internal/tech"
)

// refDistPass is the family-barrier reference for distPass: one family at
// a time, every window of the family built before any is solved, and the
// family's moves committed as one batch before the next family starts.
// Sequential and schedule-free, it defines the placement every window
// must read; the dataflow scheduler has to reproduce it bit for bit.
func refDistPass(ctx context.Context, t *ObjTracker, ps ParamSet, g passGrid,
	_ *solverPool, allowMove, allowFlip bool) (passResult, error) {
	p := t.p
	fprm := familyParams(ctx, t.prm)
	var res passResult
	for _, fam := range diagonalFamilies(g) {
		if err := ctx.Err(); err != nil {
			res.obj = t.Objective()
			return res, err
		}
		ws := make([]*window, len(fam))
		for j, wid := range fam {
			ws[j] = buildWindow(p, fprm, g.rects[wid], ps, g.buckets[wid], allowMove, allowFlip)
		}
		var moves []Move
		for _, w := range ws {
			n := len(moves)
			assign, work := w.solve()
			moves = appendWindowMoves(moves, p, w, assign)
			res.stats.Windows++
			res.stats.Rows += work.rows
			res.stats.Nodes += work.nodes
			res.stats.Capped += work.capped
			if len(moves) > n {
				res.stats.Commits++
			}
		}
		if len(moves) > 0 {
			t.ApplyMoves(moves)
		}
	}
	res.obj = t.Objective()
	return res, nil
}

// oracleDesign places a small seeded design. highFanout lets nets reach
// 48 sinks drawn from across the netlist, so single nets span many
// windows of several families.
func oracleDesign(t *testing.T, arch tech.Arch, seed int64, highFanout bool) *layout.Placement {
	t.Helper()
	tc := tech.Default()
	cfg := netlist.DefaultGenConfig("oracle", 160, seed)
	if highFanout {
		cfg.MaxFanout = 48
		cfg.Locality = 0.3
	}
	d := netlist.MustGenerate(cells.MustNewLibrary(tc, arch), cfg)
	p := layout.MustNewFloorplan(tc, d, 0.75)
	if err := place.Global(p, place.Options{}); err != nil {
		t.Fatal(err)
	}
	return p
}

// oracleRun is everything a run must reproduce: the placement, the
// Result less its timings, and the simplex work.
type oracleRun struct {
	site, row []int
	flip      []bool
	res       Result
	work      lp.Stats
}

func lpDelta(a, b lp.Stats) lp.Stats {
	return lp.Stats{
		Solves:    b.Solves - a.Solves,
		Pivots:    b.Pivots - a.Pivots,
		Refactors: b.Refactors - a.Refactors,
		FillNnz:   b.FillNnz - a.FillNnz,
		EtaNnz:    b.EtaNnz - a.EtaNnz,
	}
}

// diff describes the first difference between two runs, or returns "".
func (a oracleRun) diff(b oracleRun) string {
	for i := range a.site {
		if a.site[i] != b.site[i] || a.row[i] != b.row[i] || a.flip[i] != b.flip[i] {
			return fmt.Sprintf("placement differs at inst %d: (%d,%d,%v) vs (%d,%d,%v)",
				i, a.site[i], a.row[i], a.flip[i], b.site[i], b.row[i], b.flip[i])
		}
	}
	if !reflect.DeepEqual(a.res, b.res) {
		return fmt.Sprintf("results differ:\n%+v\n%+v", a.res, b.res)
	}
	if a.work != b.work {
		return fmt.Sprintf("lp work differs: %+v vs %+v", a.work, b.work)
	}
	return ""
}

// TestDataflowMatchesBarrierReference is the scheduler's bit-identity
// oracle: for every worker count and objective, VM1Opt on
// the dataflow scheduler must reproduce the family-barrier reference loop
// exactly — placement, objectives, history, per-pass counts (model rows,
// branch-and-bound nodes and capped windows among them) and lp work. Seed 1 uses a
// high-fanout design. Run under -race, Workers 8 exercises every scheduler
// path concurrently.
func TestDataflowMatchesBarrierReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 150 small optimizer flows")
	}
	seq := Sequence{{BW: 1000, BH: 1000, LX: 2, LY: 1}}
	var total PassStats // the reference runs' MILP work, summed
	defer func() {
		if !t.Failed() && (total.Rows == 0 || total.Nodes == 0 || total.Capped == 0) {
			t.Errorf("reference runs built %d rows, solved %d nodes and capped %d windows: the MILP counts went unchecked",
				total.Rows, total.Nodes, total.Capped)
		}
	}()
	for seed := int64(1); seed <= 5; seed++ {
		for _, name := range []string{"closedm1", "openm1", "netsep"} {
			o, err := objective.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			placed := oracleDesign(t, o.Arch(), seed, seed == 1)
			run := func(pass passFunc, workers int) oracleRun {
				p := placed.Clone()
				prm := DefaultParams(p.Tech, o.Arch())
				prm.Objective = o
				prm.Workers = workers
				prm.MaxNodes = 10
				prm.TimeLimit = 0
				prm.MaxOuterIters = 1
				before := lp.GlobalStats()
				res, err := vm1optRun(context.Background(), p, prm, seq, false, pass)
				work := lpDelta(before, lp.GlobalStats())
				if err != nil {
					t.Fatal(err)
				}
				res.Duration, res.PassIdle = 0, nil
				return oracleRun{site: p.SiteX, row: p.Row, flip: p.Flip, res: res, work: work}
			}
			want := run(refDistPass, 1)
			for _, ps := range want.res.Passes {
				total.Rows += ps.Rows
				total.Nodes += ps.Nodes
				total.Capped += ps.Capped
			}
			for _, workers := range []int{1, 2, 3, 8} {
				if d := want.diff(run(distPass, workers)); d != "" {
					t.Fatalf("seed %d %s Workers=%d: %s", seed, name, workers, d)
				}
			}
		}
	}
}

// cancelAfter is distPass with the tracker's commit hook armed to cancel
// the run at its k-th window commit, counted across passes.
func cancelAfter(cancel context.CancelFunc, k int) passFunc {
	n := 0
	return func(ctx context.Context, t *ObjTracker, ps ParamSet, g passGrid,
		pool *solverPool, allowMove, allowFlip bool) (passResult, error) {
		t.onCommit = func() {
			if n++; n == k {
				cancel()
			}
		}
		return distPass(ctx, t, ps, g, pool, allowMove, allowFlip)
	}
}

// TestVM1OptCancelAfterKthCommit cancels the run right after its k-th
// window commit, k drawn per seed and worker count. The interrupted run
// must leave a legal placement, a tracker equal to a rescan, and a history
// and pass record that are prefixes of the uninterrupted run's, and report
// context.Canceled.
func TestVM1OptCancelAfterKthCommit(t *testing.T) {
	seq := Sequence{{BW: 1000, BH: 1000, LX: 2, LY: 1}, {BW: 1500, BH: 1500, LX: 2, LY: 0}}
	for seed := int64(1); seed <= 5; seed++ {
		placed := genPlaced(t, tech.ClosedM1, 200, seed, 0.75)
		params := func(p *layout.Placement, workers int) Params {
			prm := DefaultParams(p.Tech, tech.ClosedM1)
			prm.Workers = workers
			prm.MaxNodes = 10
			prm.TimeLimit = 0
			prm.MaxOuterIters = 1
			return prm
		}
		full := placed.Clone()
		want, err := VM1OptCtx(context.Background(), full, params(full, 1), seq)
		if err != nil {
			t.Fatal(err)
		}
		// Cancel before the last pass's commits, so a later pass is always
		// left to be cut short.
		commits := 0
		for _, ps := range want.Passes[:len(want.Passes)-1] {
			commits += ps.Commits
		}
		if commits == 0 {
			t.Fatalf("seed %d: no commits to cancel after", seed)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, workers := range []int{1, 2, 8} {
			k := 1 + rng.Intn(commits)
			p := placed.Clone()
			ctx, cancel := context.WithCancel(context.Background())
			prm := params(p, workers)
			res, err := vm1optRun(ctx, p, prm, seq, false, cancelAfter(cancel, k))
			cancel()
			tag := fmt.Sprintf("seed %d Workers=%d k=%d", seed, workers, k)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: want context.Canceled, got %v", tag, err)
			}
			if err := p.CheckLegal(); err != nil {
				t.Fatalf("%s: illegal placement: %v", tag, err)
			}
			if rescan := CalculateObj(p, prm); res.Final != rescan {
				t.Fatalf("%s: tracker %+v != rescan %+v", tag, res.Final, rescan)
			}
			if res.Iters != len(res.History) || len(res.History) >= len(want.History) ||
				!slices.Equal(res.History, want.History[:len(res.History)]) {
				t.Fatalf("%s: history %+v (iters %d) is not a truncation of %+v",
					tag, res.History, res.Iters, want.History)
			}
			done := 2 * res.Iters // passes of the completed pairs
			if len(res.Passes) <= done || len(res.PassIdle) != len(res.Passes) ||
				!slices.Equal(res.Passes[:done], want.Passes[:done]) {
				t.Fatalf("%s: passes %+v inconsistent with %+v", tag, res.Passes, want.Passes)
			}
		}
	}
}
