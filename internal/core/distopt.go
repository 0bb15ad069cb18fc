package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vm1place/internal/geom"
	"vm1place/internal/layout"
)

// passGrid is the window decomposition of one DistOpt call: the window
// rectangles, the grid dimensions, and per-window instance buckets. The
// perturbation and flip passes of one Algorithm 1 iteration use the same
// offset (tx, ty), and a movable cell only ever relocates within the one
// window that fully contains it, so the grid stays exact across the pass
// pair and is computed once per iteration instead of once per pass.
type passGrid struct {
	rects    []geom.Rect
	nwx, nwy int
	buckets  [][]int
}

func makeGrid(p *layout.Placement, ps ParamSet, tx, ty int64) passGrid {
	rects, nwx, nwy := partition(p, ps, tx, ty)
	return passGrid{
		rects:   rects,
		nwx:     nwx,
		nwy:     nwy,
		buckets: bucketInsts(p, ps, tx, ty, nwx, nwy),
	}
}

func workersOf(prm Params) int {
	if prm.Workers <= 0 {
		return 1
	}
	return prm.Workers
}

// DistOpt is Algorithm 2: partition the layout into bw x bh windows at
// offset (tx, ty), then optimize diagonal families of windows (disjoint x
// and y projections, Figure 3) in parallel. allowMove/allowFlip select the
// pass mode of Algorithm 1 (perturb with f=0, or flip-only with f=1).
//
// This entry point builds a fresh objective tracker and grid for a single
// standalone pass; VM1OptCtx drives distPass directly so the tracker, grid
// and solve workspaces persist across passes. Cancellation behaves as in
// VM1OptCtx: the windows in flight commit whole, and the returned
// objective is the tracked one of the legal placement left behind.
func DistOpt(ctx context.Context, p *layout.Placement, prm Params, ps ParamSet, tx, ty int64,
	allowMove, allowFlip bool) (Objective, error) {
	r, err := distPass(ctx, NewObjTracker(p, prm), ps, makeGrid(p, ps, tx, ty),
		newSolverPool(workersOf(prm)), allowMove, allowFlip)
	if err != nil {
		return r.obj, fmt.Errorf("core: DistOpt interrupted: %w", err)
	}
	return r.obj, nil
}

// diagonalFamilies groups the grid's windows into diagonal families:
// family f holds windows with (wi - wj) ≡ f (mod D); within a family,
// window x indices and y indices are all distinct, so projections are
// disjoint and the family's windows never interfere.
func diagonalFamilies(g passGrid) [][]int {
	d := g.nwx
	if g.nwy > d {
		d = g.nwy
	}
	var families [][]int
	for f := 0; f < d; f++ {
		var fam []int
		for wj := 0; wj < g.nwy; wj++ {
			for wi := 0; wi < g.nwx; wi++ {
				if ((wi-wj)%d+d)%d == f {
					fam = append(fam, wj*g.nwx+wi)
				}
			}
		}
		if len(fam) > 0 {
			families = append(families, fam)
		}
	}
	return families
}

// appendWindowMoves appends one solved window's accepted relocations to
// moves, comparing each candidate against the live placement so unmoved
// cells produce no Move. Only the window itself moves its cells, and it
// has not committed yet, so the comparison reads their pass-start state
// whatever other windows commit meanwhile.
func appendWindowMoves(moves []Move, p *layout.Placement, w *window, assign []int) []Move {
	if assign == nil {
		return moves
	}
	for ci, inst := range w.movable {
		cd := w.cand[ci][assign[ci]]
		if cd.site == p.SiteX[inst] && cd.row == p.Row[inst] && cd.flip == p.Flip[inst] {
			continue // cell kept its placement; nothing to refresh
		}
		moves = append(moves, Move{Inst: inst, Site: cd.site, Row: cd.row, Flip: cd.flip})
	}
	return moves
}

// passResult is the outcome of one DistOpt pass.
type passResult struct {
	obj   Objective // the tracked objective after the pass
	stats PassStats
	idle  time.Duration // worker idle time; timing only
}

// passFunc runs one DistOpt pass. VM1OptCtx runs distPass; tests substitute
// a family-barrier reference loop.
type passFunc func(ctx context.Context, t *ObjTracker, ps ParamSet, g passGrid,
	pool *solverPool, allowMove, allowFlip bool) (passResult, error)

// distPass runs one DistOpt pass through an ObjTracker on the dataflow
// window scheduler (winSched, DESIGN.md §4f). Workers claim windows in
// schedule order as the nets they share allow, and build, solve and release
// each one; this goroutine is the single committer, applying each window's
// accepted relocations as its own tracker batch, which updates only the
// nets incident to moved cells. The objective is assembled once, at pass
// end. Every window reads the placement a family barrier would show it,
// so results are bit-identical for every worker count.
//
// Cancellation stops workers from claiming further windows; windows in
// flight finish and commit, so an interrupted pass returns with the
// placement legal and the tracker consistent, together with the ctx
// error. A context deadline additionally clamps the per-window MILP wall
// budget: familyParams derives one budget from the shared pass deadline at
// pass start, and the milp solver arms lp.Arena.SetDeadline with exactly
// that budget.
func distPass(ctx context.Context, t *ObjTracker, ps ParamSet, g passGrid,
	pool *solverPool, allowMove, allowFlip bool) (passResult, error) {
	if err := ctx.Err(); err != nil {
		return passResult{obj: t.Objective()}, err
	}
	p, prm := t.p, t.prm
	fprm := familyParams(ctx, prm)
	s := newWinSched(t, g, diagonalFamilies(g))
	defer context.AfterFunc(ctx, s.stop)()

	workers := min(pool.workers, len(s.win))
	start := time.Now()   // clock-ok: worker idle time for Result.PassIdle; never feeds a decision
	var busy atomic.Int64 // nanoseconds workers spent building and solving
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		sv := <-pool.solvers
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { pool.solvers <- sv }()
			var moves []Move
			for {
				k, ok := s.claim()
				if !ok {
					return
				}
				t0 := time.Now() // clock-ok: idle-time accounting only
				wid := s.win[k]
				// A window lives from its claim until its moves are
				// extracted, so live window storage is bounded by the
				// worker count, not the grid.
				w := pool.getWindow()
				w.buildGeom(p, fprm, g.rects[wid], ps, g.buckets[wid], allowMove, allowFlip)
				w.buildNetsPairs()
				s.built(k)
				w.sv = sv
				assign, work := w.solve()
				w.sv = nil
				moves = appendWindowMoves(moves[:0], p, w, assign)
				pool.putWindow(w)
				busy.Add(int64(time.Since(t0))) // clock-ok: idle-time accounting only
				s.solved(k, moves, work)
			}
		}()
	}

	var res passResult
	for {
		k, moves, ok := s.nextCommit()
		if !ok {
			break
		}
		if len(moves) > 0 {
			t.commit(moves)
			res.stats.Commits++
		}
		s.committed(k)
	}
	wg.Wait()
	res.stats.Windows = s.started
	res.stats.Rows, res.stats.Nodes, res.stats.Capped = s.work.rows, s.work.nodes, s.work.capped
	res.idle = time.Duration(workers)*time.Since(start) - time.Duration(busy.Load()) // clock-ok: idle-time accounting only
	res.obj = t.Objective()
	if s.started < len(s.win) {
		return res, ctx.Err()
	}
	return res, nil
}

// familyParams clamps the per-window MILP budget of one pass to the
// remaining time before the context deadline. The budget is derived once
// at pass start from the shared deadline — not re-read per window — so
// every window of the pass solves under the same wall budget and an
// untimed run's params pass through untouched. (Cancellation, not the
// budget, is what stops a pass whose deadline has already expired.)
func familyParams(ctx context.Context, prm Params) Params {
	dl, ok := ctx.Deadline()
	if !ok {
		return prm
	}
	rem := time.Until(dl) // clock-ok: converts the caller's ctx deadline into a milp TimeLimit; budgets, not results
	if rem < time.Millisecond {
		// The pass runs anyway (the caller's ctx.Err() gate decides when to
		// stop); a floor keeps the milp deadline armed rather than treating
		// a non-positive TimeLimit as "no budget".
		rem = time.Millisecond
	}
	if prm.TimeLimit <= 0 || rem < prm.TimeLimit {
		prm.TimeLimit = rem
	}
	return prm
}

// partition tiles the die with bw x bh windows offset by (tx, ty),
// returning the window rectangles in row-major order plus grid dimensions.
func partition(p *layout.Placement, ps ParamSet, tx, ty int64) ([]geom.Rect, int, int) {
	bw, bh := ps.BW, ps.BH
	if bw <= 0 {
		bw = p.DieWidth()
	}
	if bh <= 0 {
		bh = p.DieHeight()
	}
	x0 := mod64(tx, bw) - bw
	y0 := mod64(ty, bh) - bh
	nwx := int((p.DieWidth()-x0)/bw) + 1
	nwy := int((p.DieHeight()-y0)/bh) + 1
	rects := make([]geom.Rect, 0, nwx*nwy)
	for wj := 0; wj < nwy; wj++ {
		for wi := 0; wi < nwx; wi++ {
			rects = append(rects, geom.Rect{
				XLo: x0 + int64(wi)*bw,
				YLo: y0 + int64(wj)*bh,
				XHi: x0 + int64(wi+1)*bw,
				YHi: y0 + int64(wj+1)*bh,
			})
		}
	}
	return rects, nwx, nwy
}

// bucketInsts assigns every instance to each window its rectangle
// intersects.
func bucketInsts(p *layout.Placement, ps ParamSet, tx, ty int64, nwx, nwy int) [][]int {
	bw, bh := ps.BW, ps.BH
	if bw <= 0 {
		bw = p.DieWidth()
	}
	if bh <= 0 {
		bh = p.DieHeight()
	}
	x0 := mod64(tx, bw) - bw
	y0 := mod64(ty, bh) - bh
	buckets := make([][]int, nwx*nwy)
	for i := range p.Design.Insts {
		r := p.InstRect(i)
		wi0 := int((r.XLo - x0) / bw)
		wi1 := int((r.XHi - 1 - x0) / bw)
		wj0 := int((r.YLo - y0) / bh)
		wj1 := int((r.YHi - 1 - y0) / bh)
		for wj := clampInt(wj0, 0, nwy-1); wj <= clampInt(wj1, 0, nwy-1); wj++ {
			for wi := clampInt(wi0, 0, nwx-1); wi <= clampInt(wi1, 0, nwx-1); wi++ {
				buckets[wj*nwx+wi] = append(buckets[wj*nwx+wi], i)
			}
		}
	}
	return buckets
}

func mod64(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
