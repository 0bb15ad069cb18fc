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
	"vm1place/internal/geom"
	"vm1place/internal/layout"
	"vm1place/internal/lp"
	"vm1place/internal/netlist"
	"vm1place/internal/objective"
	"vm1place/internal/place"
	"vm1place/internal/proxy"
	"vm1place/internal/tech"
)

// refDistPass is the family-barrier reference for distPass: one family at
// a time, every window of the family built before any is solved, and the
// family's moves committed as one batch before the next family starts.
// Sequential and schedule-free, it defines the placement every window
// must read; the dataflow scheduler has to reproduce it bit for bit.
func refDistPass(ctx context.Context, t *ObjTracker, ps ParamSet, g passGrid,
	_ *solverPool, allowMove, allowFlip bool) (passResult, error) {
	p, prm := t.p, t.prm
	fprm := familyParams(ctx, prm)
	families := diagonalFamilies(g)
	plan := uniformPlan(g, families, fprm.TimeLimit)
	if prm.guided() {
		plan = guidedPlan(prm, prm.Proxy, g, families, fprm.TimeLimit)
	}
	var res passResult
	for _, fi := range plan.order {
		if err := ctx.Err(); err != nil {
			res.obj = t.Objective()
			return res, err
		}
		ws := make([]*window, len(families[fi]))
		for j, wid := range families[fi] {
			q := fprm
			q.TimeLimit = plan.wtl[wid]
			ws[j] = buildWindow(p, q, g.rects[wid], ps, g.buckets[wid], allowMove, allowFlip)
		}
		var moves []Move
		for _, w := range ws {
			n := len(moves)
			moves = appendWindowMoves(moves, p, w, w.solve())
			res.stats.Windows++
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
// oracle: for every worker count, objective and guided setting, VM1Opt on
// the dataflow scheduler must reproduce the family-barrier reference loop
// exactly — placement, objectives, history, per-pass counts and lp work.
// Seed 1 uses a high-fanout design. Run under -race, Workers 8 exercises
// every scheduler path concurrently.
func TestDataflowMatchesBarrierReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 150 small optimizer flows")
	}
	seq := Sequence{{BW: 1000, BH: 1000, LX: 2, LY: 1}}
	for seed := int64(1); seed <= 5; seed++ {
		for _, name := range []string{"closedm1", "openm1", "netsep"} {
			o, err := objective.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			placed := oracleDesign(t, o.Arch(), seed, seed == 1)
			for _, guided := range []bool{false, true} {
				run := func(pass passFunc, workers int) oracleRun {
					p := placed.Clone()
					prm := DefaultParams(p.Tech, o.Arch())
					prm.Objective = o
					prm.Workers = workers
					prm.MaxNodes = 10
					prm.TimeLimit = 0
					prm.MaxOuterIters = 1
					if guided {
						prm.Guided = true
						prm.Proxy = proxy.New(p, proxy.DefaultConfigForObjective(p.Tech, o))
					}
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
				for _, workers := range []int{1, 2, 3, 8} {
					if d := want.diff(run(distPass, workers)); d != "" {
						t.Fatalf("seed %d %s guided=%v Workers=%d: %s", seed, name, guided, workers, d)
					}
				}
			}
		}
	}
}

// cancelScorer is a WindowScorer that cancels a context at the after-th
// committed window: the tracker forwards every commit that moved a cell
// to its estimator. With no inner scorer every score is 0, and guidedPlan
// falls back to the uniform schedule.
type cancelScorer struct {
	inner  *proxy.Estimator
	cancel context.CancelFunc
	after  int
	n      int
}

func (c *cancelScorer) WindowScore(r geom.Rect) float64 {
	if c.inner == nil {
		return 0
	}
	return c.inner.WindowScore(r)
}

func (c *cancelScorer) Update(insts []int) {
	if c.inner != nil {
		c.inner.Update(insts)
	}
	if c.n++; c.n == c.after && c.cancel != nil {
		c.cancel()
	}
}

// TestVM1OptCancelAfterKthCommit cancels the run right after its k-th
// window commit, k drawn per seed and worker count, under the uniform
// (odd seeds) and guided (even seeds) schedules. The interrupted run must
// leave a legal placement, a tracker equal to a rescan, an estimator
// equal to a rebuild, and a history and pass record that are prefixes of
// the uninterrupted run's, and report context.Canceled.
func TestVM1OptCancelAfterKthCommit(t *testing.T) {
	seq := Sequence{{BW: 1000, BH: 1000, LX: 2, LY: 1}, {BW: 1500, BH: 1500, LX: 2, LY: 0}}
	for seed := int64(1); seed <= 5; seed++ {
		placed := genPlaced(t, tech.ClosedM1, 200, seed, 0.75)
		guided := seed%2 == 0
		params := func(p *layout.Placement, workers int, sc *cancelScorer) Params {
			prm := DefaultParams(p.Tech, tech.ClosedM1)
			prm.Workers = workers
			prm.MaxNodes = 10
			prm.TimeLimit = 0
			prm.MaxOuterIters = 1
			if guided {
				sc.inner = proxy.New(p, proxy.DefaultConfig(p.Tech, tech.ClosedM1))
			}
			prm.Guided = true
			prm.Proxy = sc
			return prm
		}
		full := placed.Clone()
		want, err := VM1OptCtx(context.Background(), full, params(full, 1, &cancelScorer{}), seq)
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
			sc := &cancelScorer{cancel: cancel, after: k}
			prm := params(p, workers, sc)
			res, err := VM1OptCtx(ctx, p, prm, seq)
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
			if sc.inner != nil {
				if err := sc.inner.Check(); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
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
