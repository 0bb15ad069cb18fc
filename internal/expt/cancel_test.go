package expt

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"

	"vm1place/internal/core"
	"vm1place/internal/flow"
	"vm1place/internal/tech"
)

// countdownCtx is a context whose Err reports context.Canceled from its
// k-th call on (never when k is 0), so a test can cancel a flow at an
// exact cancellation check without racing a timer. calls counts every
// Err call; starts records the call numbers at which flow.Pipeline.Run
// checked the context before starting a stage.
type countdownCtx struct {
	context.Context
	k, calls int
	starts   []int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if pc, _, _, ok := runtime.Caller(1); ok && runtime.FuncForPC(pc).Name() == "vm1place/internal/flow.(*Pipeline).Run" {
		c.starts = append(c.starts, c.calls)
	}
	if c.k > 0 && c.calls >= c.k {
		return context.Canceled
	}
	return nil
}

// TestRunFlowCtxCancelMidFlow cancels RunFlowCtx at the k-th cancellation
// check for k sampled over a whole uncanceled run: at each stage's start
// check, at the stage's own first check, evenly in between and at the last
// check. Each run must fail in the stage that owns the k-th check with a
// *flow.StageError wrapping context.Canceled, stop at that check, and
// return only the completed stages: Init once init-route has finished,
// and never Final, since final-route cannot finish.
func TestRunFlowCtxCancelMidFlow(t *testing.T) {
	spec := DesignSpec{Name: "cancel", NumInsts: 150, Seed: 31}
	cfg := FlowConfig{
		Arch: tech.ClosedM1,
		Sequence: core.Sequence{
			{BW: UmToDBU(10), BH: UmToDBU(10), LX: 2, LY: 1},
			{BW: UmToDBU(20), BH: UmToDBU(20), LX: 2, LY: 0},
		},
		MaxOuterIters: 1,
		Workers:       1,
		TimeLimit:     -1, // node-capped only: the check count is exact
	}
	stages := []string{"build", "init-route", "optimize", "final-route"}

	count := &countdownCtx{Context: context.Background()}
	full, err := RunFlowCtx(count, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Init == (Snapshot{}) || full.Final == (Snapshot{}) {
		t.Fatal("setup: uncanceled flow left a snapshot empty")
	}
	total, starts := count.calls, count.starts
	if len(starts) != len(stages) {
		t.Fatalf("setup: %d stage start checks %v, want %d", len(starts), starts, len(stages))
	}
	t.Logf("%d checks; stages start at checks %v", total, starts)
	// stageOf names the stage that owns check k.
	stageOf := func(k int) int {
		s := 0
		for s+1 < len(starts) && starts[s+1] <= k {
			s++
		}
		return s
	}

	ks := []int{total}
	for _, b := range starts {
		ks = append(ks, b, min(b+1, total))
	}
	for i := 1; i < 8; i++ {
		ks = append(ks, max(i*total/8, 1))
	}
	slices.Sort(ks)
	for _, k := range slices.Compact(ks) {
		c := &countdownCtx{Context: context.Background(), k: k}
		r, err := RunFlowCtx(c, spec, cfg)
		var se *flow.StageError
		if !errors.As(err, &se) || !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d of %d: want a *flow.StageError wrapping context.Canceled, got %v", k, total, err)
		}
		s := stageOf(k)
		if se.Stage != stages[s] {
			t.Errorf("k=%d of %d: canceled in stage %s, want %s", k, total, se.Stage, stages[s])
		}
		if c.calls != k {
			t.Errorf("k=%d of %d: %d checks made, want the flow to stop at the canceled one", k, total, c.calls)
		}
		if initDone := s > 1; (r.Init != Snapshot{}) != initDone {
			t.Errorf("k=%d (stage %s): Init set = %v, want %v", k, stages[s], r.Init != Snapshot{}, initDone)
		}
		if r.Final != (Snapshot{}) {
			t.Errorf("k=%d (stage %s): Final set on a canceled flow", k, stages[s])
		}
	}
}
