package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"vm1place/internal/tech"
)

// TestVM1OptCtxCanceledBeforeStart: a context canceled up front must end
// the run (and a standalone DistOpt pass) before any window starts — no
// moves, empty history, legal placement — with an errors.Is-able
// cancellation error.
func TestVM1OptCtxCanceledBeforeStart(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, 300, 7, 0.75)
	prm := DefaultParams(p.Tech, tech.ClosedM1)
	prm.Workers = 2

	before := append([]int(nil), p.SiteX...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res, err := VM1OptCtx(ctx, p, prm, Sequence{{BW: 2000, BH: 2000, LX: 3, LY: 1}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Iters != 0 || len(res.History) != 0 {
		t.Errorf("canceled run executed pairs: iters %d, history %d", res.Iters, len(res.History))
	}
	for i, s := range p.SiteX {
		if s != before[i] {
			t.Fatalf("canceled run moved instance %d", i)
		}
	}
	if err := p.CheckLegal(); err != nil {
		t.Errorf("placement illegal after canceled run: %v", err)
	}
	if res.Final != res.Initial {
		t.Errorf("final objective drifted without moves: %+v vs %+v", res.Final, res.Initial)
	}

	// A standalone DistOpt pass under the same context stops the same way.
	obj, err := DistOpt(ctx, p, prm, ParamSet{BW: 2000, BH: 2000, LX: 3, LY: 1}, 0, 0, true, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DistOpt: want context.Canceled, got %v", err)
	}
	if obj != res.Initial {
		t.Errorf("DistOpt objective drifted without moves: %+v vs %+v", obj, res.Initial)
	}
	for i, s := range p.SiteX {
		if s != before[i] {
			t.Fatalf("canceled DistOpt moved instance %d", i)
		}
	}
}

// TestVM1OptCtxCancelMidRun cancels while the optimizer is working. The
// run must stop at a window commit with a legal placement, a truncated
// history, and a Final objective that matches a fresh full rescan of the
// partial placement.
func TestVM1OptCtxCancelMidRun(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, 500, 9, 0.75)
	prm := DefaultParams(p.Tech, tech.ClosedM1)
	prm.Workers = 2
	prm.TimeLimit = 50 * time.Millisecond

	// Long sequence so cancellation lands mid-run, not after convergence.
	var u Sequence
	for i := 0; i < 50; i++ {
		u = append(u, ParamSet{BW: 1000, BH: 1000, LX: 3, LY: 1})
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	res, err := VM1OptCtx(ctx, p, prm, u)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(res.History) != res.Iters {
		t.Errorf("history truncated inconsistently: %d entries, %d iters",
			len(res.History), res.Iters)
	}
	if err := p.CheckLegal(); err != nil {
		t.Errorf("placement illegal after mid-run cancel: %v", err)
	}
	got := CalculateObj(p, prm)
	if got.Alignments != res.Final.Alignments || got.HPWL != res.Final.HPWL {
		t.Errorf("partial Final inconsistent with rescan: %+v vs %+v", res.Final, got)
	}
}

// TestVM1OptCtxDeadlineClampsAndStops: an already-near deadline must end
// the run promptly (clamped window budgets plus the family-boundary check)
// and report context.DeadlineExceeded.
func TestVM1OptCtxDeadlineClampsAndStops(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, 400, 11, 0.75)
	prm := DefaultParams(p.Tech, tech.ClosedM1)
	prm.Workers = 2

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := VM1OptCtx(ctx, p, prm, Sequence{{BW: 1000, BH: 1000, LX: 3, LY: 1}})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if err := p.CheckLegal(); err != nil {
		t.Errorf("placement illegal after deadline: %v", err)
	}
	// One window family may still be in flight at the deadline, but its
	// MILP budgets are clamped to the remaining time, so the overrun is
	// bounded by one family of clamped solves — far below the seconds an
	// unclamped family would take. Generous bound for CI noise.
	if elapsed > 5*time.Second {
		t.Errorf("deadline overrun: run took %v", elapsed)
	}
	if res.Final.HPWL == 0 {
		t.Errorf("partial result missing objective: %+v", res.Final)
	}
}

// TestVM1OptCtxBackgroundMatchesVM1Opt: with no deadline and a single
// worker, a live cancellable context that is never canceled must give
// byte-for-byte the run under context.Background.
func TestVM1OptCtxBackgroundMatchesVM1Opt(t *testing.T) {
	pa := genPlaced(t, tech.ClosedM1, 300, 13, 0.75)
	pb := genPlaced(t, tech.ClosedM1, 300, 13, 0.75)
	u := Sequence{{BW: 2000, BH: 2000, LX: 3, LY: 1}}

	prm := DefaultParams(pa.Tech, tech.ClosedM1)
	prm.Workers = 1
	prm.TimeLimit = 0 // node-capped only: fully deterministic
	prm.MaxOuterIters = 1

	ra, err := VM1OptCtx(context.Background(), pa, prm, u)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rb, err := VM1OptCtx(ctx, pb, prm, u)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Final != rb.Final || ra.Iters != rb.Iters {
		t.Errorf("ctx run diverged: %+v vs %+v", ra.Final, rb.Final)
	}
	for i := range pa.SiteX {
		if pa.SiteX[i] != pb.SiteX[i] || pa.Row[i] != pb.Row[i] || pa.Flip[i] != pb.Flip[i] {
			t.Fatalf("placements diverged at instance %d", i)
		}
	}
}
