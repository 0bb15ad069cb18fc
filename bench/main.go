// Command bench is vm1place's end-to-end benchmark: it runs the full
// generate → place → route → optimize → reroute → DEF flow on seeded
// synthetic designs, checks every output, and reports end-to-end metrics
// (untraced run) or per-layer metrics (traced run). See README.md.
//
//	go run . -workload closedm1-win10 -seed 1 -trace 0
//	go run . -workload all -reps 5 > runs.json
//	go run . -compare parent.json change.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	reps     int
	spans    string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", `workload to run, or "all" (one child process per workload)`)
	fs.Int64Var(&o.seed, "seed", -1, "netlist seed base (default: each workload's own)")
	fs.Float64Var(&o.seconds, "seconds", 25, "how long one run measures")
	fs.IntVar(&o.trace, "trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
	fs.IntVar(&o.reps, "reps", 1, "runs per workload, each in its own process")
	fs.StringVar(&o.spans, "spans", "", "write the traced flows' spans to this JSON file")
	cmp := fs.Bool("compare", false, "compare two documents of -workload all runs: -compare parent.json change.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *cmp:
		if fs.NArg() != 2 {
			return errors.New("-compare takes two document files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	case o.workload == "":
		return errors.New("-workload is required (a workload name or all)")
	case o.trace != 0 && o.trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	case o.workload == "all" || o.reps > 1:
		return runChildren(ctx, o, stdout, stderr)
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	seed := w.Seed
	if o.seed >= 0 {
		seed = o.seed
	}
	out, err := measure(ctx, w, seed, time.Duration(o.seconds*float64(time.Second)), o.trace == 1)
	if err != nil {
		return err
	}
	printTable(stderr, w.Name, out.Result, specsFor(o.trace == 1))
	fmt.Fprintf(stderr, "  times are calibrated: wall seconds x %.4f\n", out.Scale)
	for _, f := range out.Failures {
		fmt.Fprintln(stderr, "FAILED", f)
	}
	if o.spans != "" {
		if err := writeJSON(o.spans, out.Spans); err != nil {
			return err
		}
	}
	line, err := json.Marshal(out.Result)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if out.Result.Failed > 0 {
		return fmt.Errorf("%d of %d flows failed their checks", out.Result.Failed, out.Result.Attempted)
	}
	return nil
}

func printTable(w io.Writer, workload string, r result, specs []metricSpec) {
	fmt.Fprintf(w, "%s: %d flows, %d failed\n", workload, r.Attempted, r.Failed)
	for _, s := range specs {
		m := r.Metrics[s.Name]
		fmt.Fprintf(w, "  %-22s %14.6g %s\n", s.Name, m.Value, m.Unit)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// document is the output of -workload all / -reps: every run's result line
// with its workload, seed and repetition, and the host it ran on.
type document struct {
	Host    host     `json:"host"`
	Seconds float64  `json:"seconds"`
	Trace   int      `json:"trace"`
	Runs    []docRun `json:"runs"`
}

type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

type docRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Rep      int    `json:"rep"`
	Result   result `json:"result"`
}

// runChildren runs each selected workload o.reps times, each run in a
// fresh process (a re-exec of this binary), so heap state, pools, the
// process-wide LP counters and peak RSS never carry over between runs.
func runChildren(ctx context.Context, o options, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("find own executable: %w", err)
	}
	selected := workloads
	if o.workload != "all" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	doc := document{
		Host:    host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()},
		Seconds: o.seconds, Trace: o.trace,
	}
	var failed []string
	for rep := 0; rep < o.reps; rep++ {
		for _, w := range selected {
			seed := w.Seed
			if o.seed >= 0 {
				seed = o.seed
			}
			cmd := exec.CommandContext(ctx, exe, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace))
			cmd.Stderr = stderr
			out, err := cmd.Output()
			res, perr := lastResult(out)
			if err != nil || perr != nil {
				failed = append(failed, fmt.Sprintf("%s rep %d: %v", w.Name, rep, errors.Join(err, perr)))
			}
			doc.Runs = append(doc.Runs, docRun{Workload: w.Name, Seed: seed, Rep: rep, Result: res})
		}
	}
	failed = append(failed, checkExact(doc)...)
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("encode document: %w", err)
	}
	fmt.Fprintf(stdout, "%s\n", b)
	summarize(stderr, doc)
	if len(failed) > 0 {
		return fmt.Errorf("failed runs:\n  %s", strings.Join(failed, "\n  "))
	}
	return nil
}

// lastResult parses the result line a run prints last.
func lastResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("parse result line: %w", err)
	}
	return r, nil
}

// checkExact is the cross-process determinism gate: runs of one workload
// with one seed must agree bit for bit on every exact metric.
func checkExact(doc document) []string {
	var bad []string
	first := map[string]docRun{}
	for _, r := range doc.Runs {
		key := r.Workload + "/" + strconv.FormatInt(r.Seed, 10)
		f, ok := first[key]
		if !ok {
			first[key] = r
			continue
		}
		for _, s := range endToEnd {
			if !s.Exact {
				continue
			}
			if a, b := f.Result.Metrics[s.Name], r.Result.Metrics[s.Name]; a != b {
				bad = append(bad, fmt.Sprintf("%s: %s differs between reps %d and %d: %v vs %v",
					key, s.Name, f.Rep, r.Rep, a.Value, b.Value))
			}
		}
	}
	return bad
}

// summarize prints each workload's median and quartiles per metric.
func summarize(w io.Writer, doc document) {
	specs := specsFor(doc.Trace == 1)
	for _, wl := range workloads {
		rs := runsOf(doc, wl.Name)
		if len(rs) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s (%d runs)\n", wl.Name, len(rs))
		for _, s := range specs {
			q1, med, q3 := quartiles(values(rs, s.Name))
			fmt.Fprintf(w, "  %-22s %14.6g %s  [%.6g, %.6g]\n", s.Name, med, s.Unit, q1, q3)
		}
	}
}

func runsOf(doc document, workload string) []docRun {
	var rs []docRun
	for _, r := range doc.Runs {
		if r.Workload == workload {
			rs = append(rs, r)
		}
	}
	return rs
}

func values(rs []docRun, name string) []float64 {
	v := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}
