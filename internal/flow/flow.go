// Package flow is the staged pipeline engine of vm1place: it turns the
// monolithic place→route→opt→reroute batch call into a composition of
// named Stages over a shared State, threaded by one context.Context from
// end to end.
//
// A Stage is a unit of the flow that can be rerun, budgeted and swapped
// independently — the shape the paper's Algorithm 1 asks for (a
// distributable metaheuristic run window-by-window under external
// budgets), and the shape a serving system needs (per-request deadlines,
// graceful cancellation, checkpointable intermediate state).
//
// Conventions:
//
//   - Cancellation: every Stage receives the pipeline's Context and must
//     return promptly once it is done — long-running stages check between
//     their natural commit boundaries (window families for the optimizer,
//     routed nets for the router) so interrupted state stays legal.
//   - Errors: the Pipeline stops at the first failing stage and returns a
//     *StageError wrapping the cause, so callers can errors.Is against
//     sentinel errors (or context.Canceled / context.DeadlineExceeded)
//     and errors.As to recover the failing stage's name.
//   - Timing: per-stage wall durations are recorded on the State and
//     reported through an optional Observer hook.
package flow

import (
	"context"
	"fmt"
	"time"

	"vm1place/internal/layout"
)

// Stage is one unit of a flow pipeline.
type Stage interface {
	// Name identifies the stage in timings, observer events and errors.
	Name() string
	// Run executes the stage against the shared state. It must honor ctx
	// cancellation and return a wrapped error on failure.
	Run(ctx context.Context, st *State) error
}

// Func adapts a named function to a Stage.
func Func(name string, run func(ctx context.Context, st *State) error) Stage {
	return funcStage{name: name, run: run}
}

type funcStage struct {
	name string
	run  func(ctx context.Context, st *State) error
}

func (s funcStage) Name() string                             { return s.name }
func (s funcStage) Run(ctx context.Context, st *State) error { return s.run(ctx, st) }

// State is the shared flow state stages read and write: the placement
// under construction and per-stage wall timings.
type State struct {
	// Placement is the design being flowed. The Build-style stage that
	// creates it sets the field; later stages mutate it in place.
	Placement *layout.Placement

	// Timings records one entry per executed stage, in execution order.
	Timings []Timing
}

// Timing is the recorded wall time of one executed stage.
type Timing struct {
	Stage    string
	Duration time.Duration
}

// StageDuration returns the total recorded duration of the named stage
// (summed, should the stage have been rerun).
func (st *State) StageDuration(name string) time.Duration {
	var d time.Duration
	for _, t := range st.Timings {
		if t.Stage == name {
			d += t.Duration
		}
	}
	return d
}

// Observer receives stage lifecycle events from a Pipeline run. Both
// methods are called on the goroutine running the pipeline.
type Observer interface {
	StageStart(name string)
	StageDone(name string, d time.Duration, err error)
}

// StageError wraps the error of a failing (or canceled) stage with the
// stage's name. It unwraps to the cause, so errors.Is sees sentinel
// errors and context errors through it.
type StageError struct {
	Stage string
	Err   error
}

func (e *StageError) Error() string {
	return fmt.Sprintf("flow: stage %s: %v", e.Stage, e.Err)
}

func (e *StageError) Unwrap() error { return e.Err }

// Pipeline is an ordered list of stages run against one shared State.
type Pipeline struct {
	stages []Stage
	obs    Observer
}

// New builds a pipeline from the given stages.
func New(stages ...Stage) *Pipeline {
	return &Pipeline{stages: stages}
}

// Observe attaches an observer to the pipeline and returns it.
func (pl *Pipeline) Observe(obs Observer) *Pipeline {
	pl.obs = obs
	return pl
}

// Run executes the stages in order against st, threading ctx end to end.
// It stops at the first failing stage and returns its wrapped *StageError;
// a context that is already done fails the next stage before it runs.
// Completed stages' timings remain on st even when a later stage fails.
func (pl *Pipeline) Run(ctx context.Context, st *State) error {
	for _, s := range pl.stages {
		if err := ctx.Err(); err != nil {
			return &StageError{Stage: s.Name(), Err: err}
		}
		if pl.obs != nil {
			pl.obs.StageStart(s.Name())
		}
		start := time.Now()
		err := s.Run(ctx, st)
		d := time.Since(start)
		st.Timings = append(st.Timings, Timing{Stage: s.Name(), Duration: d})
		if pl.obs != nil {
			pl.obs.StageDone(s.Name(), d, err)
		}
		if err != nil {
			return &StageError{Stage: s.Name(), Err: err}
		}
	}
	return nil
}
