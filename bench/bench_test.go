package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"vm1place/internal/core"
	"vm1place/internal/tech"
)

// TestPipelineMatchesExpt pins the harness to the product path: its
// stage-per-layer pipeline must route and optimize a design to exactly the
// QoR expt.RunFlowCtx reports for the same configuration.
// Every untraced run repeats this check on its first design.
func TestPipelineMatchesExpt(t *testing.T) {
	ctx := context.Background()
	w := workload{Name: "m0", Insts: 200, Arch: tech.ClosedM1, Seq: core.Sequence{ps(10, 3, 1)}, MaxOuter: 1}
	r := runOp(ctx, w, 101, 0, nil)
	if f := r.failures(); len(f) > 0 {
		t.Fatal(f)
	}
	if f := productMismatch(ctx, w, 101, r); len(f) > 0 {
		t.Error(f)
	}
}

// benchmarkFile is BENCHMARK.json; decoding rejects any other key.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesHarness checks that BENCHMARK.json declares
// exactly the harness's workloads and metrics, with valid names, and that
// a short run of every workload emits every declared metric.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %s: %s", i, w, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, harness %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	var names []string
	for i, m := range bf.EndToEnd {
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, harness %+v", i, m, s)
		}
		names = append(names, m.Name)
	}
	for i, m := range bf.PerLayer {
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, harness %+v", i, m, s)
		}
		names = append(names, m.Name)
	}
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	for _, s := range append(slices.Clone(endToEnd), perLayer...) {
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("unit %q of %s is not a valid unit", s.Unit, s.Name)
		}
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is invalid or repeated", n)
		}
		seen[n] = true
	}

	for _, w := range workloads {
		w.Insts, w.QoRDesigns = 300, 1
		for _, trace := range []bool{false, true} {
			out, err := measure(context.Background(), w, 1, 0, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			r := out.Result
			if !r.Correct || r.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d flows failed: %v", w.Name, trace, r.Failed, r.Attempted, out.Failures)
			}
			specs := specsFor(trace)
			if len(r.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(r.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := r.Metrics[s.Name]
				if !ok || m.Unit != s.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v", w.Name, trace, s.Name, m)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
	} {
		if q1, m, q3 := quartiles(c.v); q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "flow_s", Better: "lower", Bound: 0.05}
	parent := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10.05, 9.95}
	scaled := func(f float64) []float64 {
		v := slices.Clone(parent)
		for i := range v {
			v[i] *= f
		}
		return v
	}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{scaled(0.9), "improved"},
		{scaled(1.01), "no regression"},
		{scaled(1.1), "regressed"},
	} {
		if got := judge(lower, parent, c.change).text; got != c.want {
			t.Errorf("change %v: %s, want %s", c.change[0], got, c.want)
		}
	}
	if got := judge(lower, parent[:5], scaled(0.9)[:5]).text; got != "no regression" {
		t.Errorf("five pairs: %s, want no regression (a gain needs ten)", got)
	}
	noisy := []float64{8, 12, 9, 11, 10, 8, 12, 9, 11, 10}
	if got := judge(lower, noisy, scaled(1.1)).text; got != "unresolved" {
		t.Errorf("noisy parent: %s, want unresolved", got)
	}
}

// TestJudgeExactPairs checks that an exact metric is judged seed by seed:
// a loss far inside the spread between seeds still regresses.
func TestJudgeExactPairs(t *testing.T) {
	dm1 := metricSpec{Name: "dm1_final", Better: "higher", Bound: 0.15, Exact: true, PairBound: 0.02}
	parent := []float64{80, 90, 100, 110, 120, 85, 95, 105, 115, 125}
	scaled := func(f float64, i int) []float64 {
		v := slices.Clone(parent)
		v[i] *= f
		return v
	}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{scaled(0.97, 3), "regressed"},
		{scaled(0.99, 3), "no regression"},
		{parent, "no regression"},
	} {
		if got := judge(dm1, parent, c.change).text; got != c.want {
			t.Errorf("change %v: %s, want %s", c.change, got, c.want)
		}
	}
}

// TestCompareCountsFailures checks that runs pair by seed, that a run that
// failed a check leaves the medians, and that more failed flows regress.
func TestCompareCountsFailures(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, failSeed int64) string {
		doc := document{}
		for s := int64(1); s <= 10; s++ {
			ms := map[string]metric{}
			for _, spec := range endToEnd {
				ms[spec.Name] = metric{Value: float64(s), Unit: spec.Unit}
			}
			r := result{Correct: s != failSeed, Attempted: 4, Metrics: ms}
			if !r.Correct {
				r.Failed = 1
			}
			doc.Runs = append(doc.Runs, docRun{Workload: workloads[0].Name, Seed: s, Result: r})
		}
		slices.Reverse(doc.Runs) // pairing must not depend on order
		path := dir + "/" + name
		if err := writeJSON(path, doc); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent, same, failing := write("parent.json", 0), write("same.json", 0), write("failing.json", 3)
	var out bytes.Buffer
	if err := compareFiles(parent, same, &out); err != nil {
		t.Errorf("identical runs: %v\n%s", err, &out)
	}
	out.Reset()
	err := compareFiles(parent, failing, &out)
	if err == nil || !strings.Contains(err.Error(), "fail_frac") {
		t.Errorf("change with a failed flow: %v, want a fail_frac regression\n%s", err, &out)
	}
	if !strings.Contains(out.String(), "(9 pairs)") {
		t.Errorf("the failed run should leave the pairs:\n%s", &out)
	}
}
