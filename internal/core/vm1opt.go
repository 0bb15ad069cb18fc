package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"vm1place/internal/layout"
)

// Result summarizes one VM1OptCtx run.
type Result struct {
	// Initial and Final objectives.
	Initial, Final Objective
	// History holds the objective after every DistOpt pair. A canceled run
	// truncates the history at the last completed pair.
	History []Objective
	// Iters counts DistOpt pairs executed.
	Iters int
	// Passes holds the scheduler counts of every DistOpt pass run, in
	// order, including an interrupted last pass. They count work, not
	// time, so untimed runs reproduce them exactly.
	Passes []PassStats
	// PassIdle is the worker idle time of each pass in Passes: workers x
	// pass wall time, less the time workers spent building and solving
	// windows. Timing only; it varies from run to run.
	PassIdle []time.Duration
	// Duration is wall time of the optimization.
	Duration time.Duration
}

// PassStats counts the work of one DistOpt pass.
type PassStats struct {
	// Windows is the number of windows built and solved.
	Windows int
	// Commits is the number of windows whose moves changed the placement;
	// each commits as its own tracker batch.
	Commits int
	// Rows is the number of model rows the pass's window MILPs were built
	// with, summed over the windows.
	Rows int
	// Nodes is the number of branch-and-bound nodes the pass's window
	// MILPs solved.
	Nodes int
	// Capped is the number of window MILPs that stopped at MaxNodes or at
	// their deadline before proving their incumbent optimal (or, rarely,
	// at a node relaxation the simplex could not resolve).
	Capped int
}

// VM1OptCtx is Algorithm 1: for each parameter set u in the sequence U,
// alternate a perturbation pass (f=0) and a flip pass (f=1) of DistOpt,
// shifting the window grid between iterations to cover boundary cells,
// until the relative objective improvement drops below θ; then advance to
// the next parameter set.
//
// The placement is optimized in place and stays legal throughout. One
// ObjTracker carries the objective incrementally across every pass, the
// window grid is computed once per perturb+flip pair (both passes share
// the same offset), and each worker keeps one solve workspace (LP arena,
// pooled models, assembly buffers) plus a window freelist for the whole
// run, so the steady-state inner loop allocates per pass, not per window.
//
// Cancellation stops the optimizer from starting further windows, and the
// windows in flight finish and commit whole, so the placement is always
// legal when it returns. A context deadline additionally clamps the
// per-window MILP wall budget (threaded down to lp.Arena.SetDeadline) so
// in-flight window solves stop at the deadline too. On cancellation it
// returns the partial Result accumulated so far — Final reflects the
// current placement and History is truncated at the last completed pair —
// together with an error wrapping ctx.Err().
func VM1OptCtx(ctx context.Context, p *layout.Placement, prm Params, u Sequence) (Result, error) {
	return vm1optRun(ctx, p, prm, u, false, distPass)
}

// VM1OptJointCtx is the ablation variant of Algorithm 1 that optimizes
// location and orientation *simultaneously* in each window MILP instead of
// the paper's sequential perturb-then-flip passes. The paper observes the
// sequential scheme is faster at similar quality (§4.2); this variant
// exists to reproduce that comparison. Cancellation behaves as in
// VM1OptCtx.
func VM1OptJointCtx(ctx context.Context, p *layout.Placement, prm Params, u Sequence) (Result, error) {
	return vm1optRun(ctx, p, prm, u, true, distPass)
}

// theta is the relative objective improvement below which Algorithm 1's
// inner loop ends (the paper's θ = 1%).
const theta = 0.01

// vm1optRun drives Algorithm 1 in either the sequential perturb-then-flip
// mode or the joint move+flip ablation mode, running each DistOpt pass
// with pass.
func vm1optRun(ctx context.Context, p *layout.Placement, prm Params, u Sequence, joint bool,
	pass passFunc) (Result, error) {
	start := time.Now() // clock-ok: stamps Result.Duration for reporting; never feeds a decision
	t := NewObjTracker(p, prm)
	res := Result{Initial: t.Objective()}
	obj := res.Initial
	pool := newSolverPool(workersOf(prm))
	record := func(r passResult, err error) (Objective, error) {
		res.Passes = append(res.Passes, r.stats)
		res.PassIdle = append(res.PassIdle, r.idle)
		return r.obj, err
	}

	var runErr error
loop:
	for _, ps := range u {
		var tx, ty int64
		iters := 0
		for {
			preObj := obj.Value
			g := makeGrid(p, ps, tx, ty)

			if joint {
				obj, runErr = record(pass(ctx, t, ps, g, pool, true, true))
			} else {
				// Perturbation pass: move within (lx, ly), keep orientation.
				if _, runErr = record(pass(ctx, t, ps, g, pool, true, false)); runErr == nil {
					// Flip pass: keep location, optimize orientation.
					obj, runErr = record(pass(ctx, t, ps, g, pool, false, true))
				}
			}
			if runErr != nil {
				// Partial pair: the placement is legal (each window
				// commits whole) but the pair did not finish, so the
				// history is truncated here.
				break loop
			}

			// Shift windows to pick up previously-unoptimizable boundary
			// cells (Section 4.2).
			tx += ps.BW / 2
			ty += ps.BH / 2

			res.History = append(res.History, obj)
			res.Iters++
			iters++

			dObj := (preObj - obj.Value) / math.Max(math.Abs(preObj), 1)
			if dObj < theta {
				break
			}
			if prm.MaxOuterIters > 0 && iters >= prm.MaxOuterIters {
				break
			}
		}
	}
	res.Final = t.Objective()
	res.Duration = time.Since(start) // clock-ok: wall-time report only
	if runErr != nil {
		return res, fmt.Errorf("core: VM1Opt interrupted: %w", runErr)
	}
	return res, nil
}
