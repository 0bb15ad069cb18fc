package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// compareFiles judges a change against its parent from two documents of
// runs made with the same settings, parent first. Runs pair by workload,
// seed and repetition, and a pair counts only when both runs passed every
// check. For every workload it prints both sides' failed flows, and for
// every end-to-end metric each side's median and quartiles over the pairs,
// the share of pairs the change won, and a verdict by the rules in
// README.md. Any regression makes it fail.
func compareFiles(parentPath, changePath string, w io.Writer) error {
	parent, err := readDoc(parentPath)
	if err != nil {
		return err
	}
	change, err := readDoc(changePath)
	if err != nil {
		return err
	}
	var regressed []string
	for _, wl := range workloads {
		pa, ch := runsOf(parent, wl.Name), runsOf(change, wl.Name)
		if len(pa) == 0 || len(ch) == 0 {
			continue
		}
		pAtt, pFail := flowCounts(pa)
		cAtt, cFail := flowCounts(ch)
		moreFailures := float64(cFail)/float64(cAtt) > float64(pFail)/float64(pAtt)
		pairs := pairRuns(pa, ch)
		fmt.Fprintf(w, "%s (%d pairs)\n", wl.Name, len(pairs))
		failVerdict := "no regression"
		if moreFailures {
			failVerdict = "regressed"
			regressed = append(regressed, wl.Name+" fail_frac")
		}
		fmt.Fprintf(w, "  %-12s parent %d/%d  change %d/%d  %s\n", "fail_frac", pFail, pAtt, cFail, cAtt, failVerdict)
		for _, s := range endToEnd {
			pv, cv := pairValues(pairs, s.Name)
			v := judge(s, pv, cv)
			if moreFailures && v.text == "improved" {
				v.text = "not counted: more failed flows"
			}
			p1, pm, p3 := quartiles(pv)
			c1, cm, c3 := quartiles(cv)
			fmt.Fprintf(w, "  %-12s parent %-10.6g [%.6g, %.6g]  change %-10.6g [%.6g, %.6g]  %+7.2f%%  won %3.0f%%  %s\n",
				s.Name, pm, p1, p3, cm, c1, c3, 100*ratio(cm-pm, pm), 100*v.won, v.text)
			if v.text == "regressed" {
				regressed = append(regressed, wl.Name+" "+s.Name)
			}
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("regressed: %s", strings.Join(regressed, ", "))
	}
	return nil
}

// readDoc reads one or more concatenated documents, such as the appended
// output of alternating parent and change runs, as one.
func readDoc(path string) (document, error) {
	var all document
	f, err := os.Open(path)
	if err != nil {
		return all, fmt.Errorf("read %s: %w", path, err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	for {
		var d document
		err := dec.Decode(&d)
		if errors.Is(err, io.EOF) {
			return all, nil
		}
		if err != nil {
			return all, fmt.Errorf("parse %s: %w", path, err)
		}
		all.Host, all.Seconds, all.Trace = d.Host, d.Seconds, d.Trace
		all.Runs = append(all.Runs, d.Runs...)
	}
}

// flowCounts sums the flows attempted and failed over runs. A run that
// ended without a result line counts as one failed flow.
func flowCounts(rs []docRun) (attempted, failed int) {
	for _, r := range rs {
		if r.Result.Attempted == 0 {
			attempted, failed = attempted+1, failed+1
			continue
		}
		attempted, failed = attempted+r.Result.Attempted, failed+r.Result.Failed
	}
	return attempted, failed
}

// runPair is a parent run and a change run of one seed and repetition.
type runPair struct{ parent, change docRun }

// pairRuns pairs the runs of two sides that share seed and repetition, the
// k-th such run of one side with the k-th of the other, keeping a pair only
// when both runs passed every check.
func pairRuns(parent, change []docRun) []runPair {
	key := func(r docRun) string { return strconv.FormatInt(r.Seed, 10) + "/" + strconv.Itoa(r.Rep) }
	waiting := map[string][]docRun{}
	for _, r := range parent {
		waiting[key(r)] = append(waiting[key(r)], r)
	}
	var pairs []runPair
	for _, c := range change {
		k := key(c)
		if len(waiting[k]) == 0 {
			continue
		}
		p := waiting[k][0]
		waiting[k] = waiting[k][1:]
		if p.Result.Correct && c.Result.Correct {
			pairs = append(pairs, runPair{p, c})
		}
	}
	return pairs
}

// pairValues returns the named metric of each pair, parent and change in
// pair order.
func pairValues(pairs []runPair, name string) (parent, change []float64) {
	for _, p := range pairs {
		parent = append(parent, p.parent.Result.Metrics[name].Value)
		change = append(change, p.change.Result.Metrics[name].Value)
	}
	return parent, change
}

type verdict struct {
	won  float64 // share of pairs the change won; ties count for neither
	text string
}

// judge applies the acceptance rules to paired values: a gain needs at
// least ten pairs, the change winning nine tenths of them, and a median
// moved by more than the parent's quartile spread; a median worse by more
// than the bound is a regression. An exact metric repeats bit for bit for
// a seed, so it is also judged pair by pair: any pair worse by more than
// its PairBound is a regression. A metric that is not exact is unresolved
// when the parent's own spread is wider than the bound, unless every
// change run beats every parent run.
func judge(s metricSpec, parent, change []float64) verdict {
	better := func(x, y float64) bool { return x < y }
	if s.Better == "higher" {
		better = func(x, y float64) bool { return x > y }
	}
	n := len(parent)
	if n == 0 {
		return verdict{text: "no data"}
	}
	// worse is the share by which the change reads worse than the parent.
	worse := func(p, c float64) float64 {
		if s.Better == "higher" {
			return ratio(p-c, p)
		}
		return ratio(c-p, p)
	}
	var v verdict
	pairRegressed := false
	for i := range parent {
		if better(change[i], parent[i]) {
			v.won++
		}
		if s.Exact && worse(parent[i], change[i]) > s.PairBound {
			pairRegressed = true
		}
	}
	v.won /= float64(n)

	p1, pm, p3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	_, cWorst := extremes(change, better)
	pBest, _ := extremes(parent, better)
	allBetter := better(cWorst, pBest)
	switch {
	case pairRegressed:
		v.text = "regressed"
	case n >= 10 && v.won >= 0.9 && better(cm, pm) && math.Abs(cm-pm) > p3-p1:
		v.text = "improved"
	case !s.Exact && ratio(p3-p1, pm) > s.Bound && !allBetter:
		v.text = "unresolved"
	case worse(pm, cm) > s.Bound:
		v.text = "regressed"
	default:
		v.text = "no regression"
	}
	return v
}

// extremes returns the best and worst of v under better.
func extremes(v []float64, better func(x, y float64) bool) (best, worst float64) {
	best, worst = v[0], v[0]
	for _, x := range v[1:] {
		if better(x, best) {
			best = x
		}
		if better(worst, x) {
			worst = x
		}
	}
	return best, worst
}
