package main

import (
	"context"
	"fmt"
	"syscall"
	"time"
)

// result is the last line a run prints: the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOutput is a finished run: its result line, every failed check, the
// spans of its traced flows, and the calibration scale of its times.
type runOutput struct {
	Result   result
	Failures []string
	Spans    []span
	Scale    float64
}

// tally counts attempted and failed flows and collects why they failed.
type tally struct {
	attempted, failed int
	why               []string
}

func (t *tally) add(design int, failures []string) {
	t.attempted++
	if len(failures) == 0 {
		return
	}
	t.failed++
	for _, s := range failures {
		t.why = append(t.why, fmt.Sprintf("design %d: %s", design, s))
	}
}

// sameOutcome is the determinism gate: a design must flow to the same
// QoR and the same simplex work every time, traced or not.
func sameOutcome(a, b op) []string {
	if a.Err != nil || b.Err != nil || a.Out == b.Out {
		return nil
	}
	return []string{fmt.Sprintf("nondeterministic: %+v vs %+v", a.Out, b.Out)}
}

// measure runs workload w from seed for at least d, flowing designs
// 0, 1, 2, ... and never fewer than w.QoRDesigns. The calibration loop
// runs before every flow.
//
// Untraced, each design flows once and is timed; design 0 then flows again
// through expt.RunFlowCtx, which must reach the same QoR (productMismatch).
// Traced, each design flows twice, traced and untraced in alternating
// order: the pair feeds the determinism gate and trace.overhead_pct (the
// median pair's slowdown), the traced flow the per-layer metrics.
func measure(ctx context.Context, w workload, seed int64, d time.Duration, trace bool) (runOutput, error) {
	cal := newCalibrator()
	var t tally
	tr := newTracer(w.Name)
	plain := func(j int) op {
		cal.sample()
		return runOp(ctx, w, seed, j, nil)
	}
	traced := func(j int) tracedOp {
		cal.sample()
		tr.begin(t.attempted, j)
		r := runOp(ctx, w, seed, j, tr)
		return tracedOp{op: r, spans: tr.end()}
	}
	start := time.Now()
	more := func(j int) bool { return j < w.QoRDesigns || time.Since(start) < d }

	var vals map[string]float64
	if !trace {
		var ops []op
		for j := 0; more(j); j++ {
			r := plain(j)
			t.add(j, r.failures())
			ops = append(ops, r)
		}
		t.add(0, productMismatch(ctx, w, seed, ops[0]))
		rss, err := peakRSSMB()
		if err != nil {
			return runOutput{}, err
		}
		vals = endToEndValues(w, ops, cal.scale(), rss)
	} else {
		var tops []tracedOp
		var slowdown []float64
		for j := 0; more(j); j++ {
			var a tracedOp
			var b op
			if j%2 == 0 {
				a, b = traced(j), plain(j)
			} else {
				b, a = plain(j), traced(j)
			}
			t.add(j, b.failures())
			t.add(j, append(a.failures(), sameOutcome(b, a.op)...))
			tops = append(tops, a)
			slowdown = append(slowdown, a.Flow.Seconds()/b.Flow.Seconds()-1)
		}
		// The median pair, because the first flow of a process also pays
		// its warm-up.
		vals = perLayerValues(tops, cal.scale(), 100*median(slowdown))
	}
	metrics, err := report(specsFor(trace), vals)
	if err != nil {
		return runOutput{}, err
	}
	return runOutput{
		Result:   result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics},
		Failures: t.why,
		Spans:    tr.spans,
		Scale:    cal.scale(),
	}, nil
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}
