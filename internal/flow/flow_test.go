package flow

import (
	"context"
	"errors"
	"testing"
	"time"
)

type event struct {
	kind  string // "start" or "done"
	stage string
	err   error
}

type recorder struct{ events []event }

func (r *recorder) StageStart(name string) { r.events = append(r.events, event{"start", name, nil}) }
func (r *recorder) StageDone(name string, d time.Duration, err error) {
	r.events = append(r.events, event{"done", name, err})
}

func TestPipelineRunsStagesInOrder(t *testing.T) {
	var order []string
	mk := func(name string) Stage {
		return Func(name, func(ctx context.Context, st *State) error {
			order = append(order, name)
			return nil
		})
	}
	rec := &recorder{}
	pl := New(mk("a"), mk("b"), mk("c")).Observe(rec)
	st := &State{}
	if err := pl.Run(context.Background(), st); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("stage order = %v", order)
	}
	if len(st.Timings) != 3 {
		t.Fatalf("timings = %v", st.Timings)
	}
	for i, name := range []string{"a", "b", "c"} {
		if st.Timings[i].Stage != name {
			t.Errorf("timing %d is %q, want %q", i, st.Timings[i].Stage, name)
		}
	}
	// Observer saw start/done per stage, in order.
	if len(rec.events) != 6 {
		t.Fatalf("observer events = %v", rec.events)
	}
	if rec.events[0].kind != "start" || rec.events[0].stage != "a" ||
		rec.events[5].kind != "done" || rec.events[5].stage != "c" {
		t.Errorf("observer events out of order: %v", rec.events)
	}
}

func TestPipelineStopsAtFailingStage(t *testing.T) {
	sentinel := errors.New("boom")
	ran := map[string]bool{}
	mk := func(name string, err error) Stage {
		return Func(name, func(ctx context.Context, st *State) error {
			ran[name] = true
			return err
		})
	}
	rec := &recorder{}
	pl := New(mk("ok", nil), mk("bad", sentinel), mk("after", nil)).Observe(rec)
	st := &State{}
	err := pl.Run(context.Background(), st)
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("errors.Is(err, sentinel) = false for %v", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "bad" {
		t.Errorf("errors.As StageError = %v, stage %q", err, se.Stage)
	}
	if ran["after"] {
		t.Error("stage after the failure ran")
	}
	// Both executed stages have timings; the failing one reported its error
	// to the observer.
	if len(st.Timings) != 2 {
		t.Errorf("timings = %v", st.Timings)
	}
	last := rec.events[len(rec.events)-1]
	if last.kind != "done" || last.stage != "bad" || !errors.Is(last.err, sentinel) {
		t.Errorf("last observer event = %+v", last)
	}
}

func TestPipelineCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	pl := New(Func("never", func(ctx context.Context, st *State) error {
		ran = true
		return nil
	}))
	err := pl.Run(ctx, &State{})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "never" {
		t.Errorf("stage error = %v", err)
	}
	if ran {
		t.Error("stage ran under canceled context")
	}
}

func TestPipelineCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pl := New(
		Func("first", func(ctx context.Context, st *State) error {
			cancel() // cancellation arrives while a stage is running
			return nil
		}),
		Func("second", func(ctx context.Context, st *State) error {
			t.Error("second stage ran after cancellation")
			return nil
		}),
	)
	st := &State{}
	err := pl.Run(ctx, st)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "second" {
		t.Errorf("cancellation should be charged to the next stage, got %v", err)
	}
	if len(st.Timings) != 1 || st.Timings[0].Stage != "first" {
		t.Errorf("timings = %v", st.Timings)
	}
}

func TestStageDurationSums(t *testing.T) {
	st := &State{Timings: []Timing{
		{Stage: "x", Duration: time.Second},
		{Stage: "y", Duration: time.Millisecond},
		{Stage: "x", Duration: time.Second},
	}}
	if d := st.StageDuration("x"); d != 2*time.Second {
		t.Errorf("StageDuration(x) = %v", d)
	}
	if d := st.StageDuration("missing"); d != 0 {
		t.Errorf("StageDuration(missing) = %v", d)
	}
}
