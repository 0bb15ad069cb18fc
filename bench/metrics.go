package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// metricSpec declares one reported metric. Bound, for end-to-end metrics,
// is the share of the parent's median by which the metric may worsen
// before a change counts as a regression. Exact metrics are pure functions
// of the seed: every run with the same seed must report them bit for bit,
// so runs of parent and change with one seed differ only by the change,
// and PairBound is the share by which any one such pair may worsen.
type metricSpec struct {
	Name      string
	Unit      string
	Better    string
	Bound     float64
	Exact     bool
	PairBound float64
}

// endToEnd are the metrics of an untraced run. Times are calibrated
// seconds (calibrate.go). flow_s and opt_s are seconds per flow over the
// run's flows after the first, which also pays the process's warm-up: the
// inverse of the run's throughput, whose spread between seeds is lower
// than the median flow's. setup_s is the median over every flow. QoR covers
// the workload's first QoRDesigns designs: dm1_final is the mean number of
// direct vertical M1 routes after optimization, and each ratio is
// Σfinal/Σinit over those designs, a Table 2 delta (WNS is negative on
// every workload, so below 1 means less violation). Absolute wirelength,
// DRV and WNS values vary between the seed-drawn designs far more than the
// optimizer's relative effect on them does.
//
// Bound must hold runs of different seeds, which flow different designs:
// each is three times the widest quartile spread over ten seeds seen on
// the reference host, or 0.25, the most allowed, where that is less.
// dm1_final's bound, 0.18, is below that (its widest spread seen was 10%)
// so that a 20% loss of direct M1 routes still regresses. PairBound
// compares runs of one seed and needs no room for noise. README.md has
// the measurements.
var endToEnd = []metricSpec{
	{Name: "flow_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "opt_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "dm1_final", Unit: "count", Better: "higher", Bound: 0.18, Exact: true, PairBound: 0.02},
	{Name: "rwl_ratio", Unit: "ratio", Better: "lower", Bound: 0.012, Exact: true, PairBound: 0.002},
	{Name: "via12_ratio", Unit: "ratio", Better: "lower", Bound: 0.021, Exact: true, PairBound: 0.005},
	{Name: "hpwl_ratio", Unit: "ratio", Better: "lower", Bound: 0.006, Exact: true, PairBound: 0.002},
	{Name: "drv_ratio", Unit: "ratio", Better: "lower", Bound: 0.25, Exact: true, PairBound: 0.02},
	{Name: "wns_ratio", Unit: "ratio", Better: "lower", Bound: 0.015, Exact: true, PairBound: 0.005},
}

// perLayer are the metrics of a traced run, means per traced flow unless
// named as a ratio. README.md maps each to the end-to-end metric it should
// move.
var perLayer = []metricSpec{
	{Name: "lp.solves", Unit: "count", Better: "lower"},
	{Name: "lp.pivots", Unit: "count", Better: "lower"},
	{Name: "lp.refactors", Unit: "count", Better: "lower"},
	{Name: "lp.fill_nnz", Unit: "count", Better: "lower"},
	{Name: "lp.eta_nnz", Unit: "count", Better: "lower"},
	{Name: "lp.pivots_per_solve", Unit: "count", Better: "lower"},
	{Name: "lp.fill_per_refactor", Unit: "count", Better: "lower"},
	{Name: "lp.ns_per_pivot", Unit: "ns", Better: "lower"},
	{Name: "core.vm1opt_s", Unit: "s", Better: "lower"},
	{Name: "core.pairs", Unit: "count", Better: "lower"},
	{Name: "core.s_per_pair", Unit: "s", Better: "lower"},
	{Name: "core.mallocs", Unit: "count", Better: "lower"},
	{Name: "core.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "core.align_final", Unit: "count", Better: "higher"},
	{Name: "core.obj_gain_pct", Unit: "%", Better: "higher"},
	{Name: "route.init_s", Unit: "s", Better: "lower"},
	{Name: "route.final_s", Unit: "s", Better: "lower"},
	{Name: "route.mallocs", Unit: "count", Better: "lower"},
	{Name: "route.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "route.failed_conns", Unit: "count", Better: "lower"},
	{Name: "route.overflow_init", Unit: "count", Better: "lower"},
	{Name: "route.overflow_final", Unit: "count", Better: "lower"},
	{Name: "route.dm1_init", Unit: "count", Better: "higher"},
	{Name: "cells.library_s", Unit: "s", Better: "lower"},
	{Name: "netlist.generate_s", Unit: "s", Better: "lower"},
	{Name: "layout.floorplan_s", Unit: "s", Better: "lower"},
	{Name: "place.global_s", Unit: "s", Better: "lower"},
	{Name: "place.hpwl_um", Unit: "um", Better: "lower"},
	{Name: "sta.analyze_s", Unit: "s", Better: "lower"},
	{Name: "sta.wns_final_ns", Unit: "ns", Better: "higher"},
	{Name: "objective.rescan_s", Unit: "s", Better: "lower"},
	{Name: "lefdef.write_s", Unit: "s", Better: "lower"},
	{Name: "lefdef.parse_s", Unit: "s", Better: "lower"},
	{Name: "lefdef.def_mb", Unit: "MB", Better: "lower"},
	{Name: "gc.cycles", Unit: "count", Better: "lower"},
	{Name: "gc.pause_ms", Unit: "ms", Better: "lower"},
	{Name: "heap.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "flow.self_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// specsFor returns the metrics a run reports: per-layer when traced.
func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

const mb = 1 << 20

// um converts DBU to µm on the default technology (1000 DBU per µm).
func um(dbu int64) float64 { return float64(dbu) / 1000 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndValues computes the untraced run's metrics from its timed ops
// (every design completed, once each), the calibration scale of its times
// and its peak resident set.
func endToEndValues(w workload, ops []op, scale, peakRSS float64) map[string]float64 {
	timed := ops
	if len(ops) > 1 {
		timed = ops[1:]
	}
	var flowS, optS float64
	for _, r := range timed {
		flowS += scale * r.Flow.Seconds()
		optS += scale * r.stage(stOpt).Seconds()
	}
	setups := make([]float64, len(ops))
	for i, r := range ops {
		for _, s := range setupStages {
			setups[i] += scale * r.stage(s).Seconds()
		}
	}
	qor := ops[:min(w.QoRDesigns, len(ops))]
	var dm1 float64
	for _, r := range qor {
		dm1 += float64(r.Out.Final.DM1)
	}
	delta := func(f func(routed) float64) float64 {
		var init, final float64
		for _, r := range qor {
			init, final = init+f(r.Out.Init), final+f(r.Out.Final)
		}
		return ratio(final, init)
	}
	return map[string]float64{
		"flow_s":      flowS / float64(len(timed)),
		"opt_s":       optS / float64(len(timed)),
		"setup_s":     median(setups),
		"peak_rss_mb": peakRSS,
		"dm1_final":   dm1 / float64(len(qor)),
		"rwl_ratio":   delta(func(r routed) float64 { return float64(r.RWL) }),
		"via12_ratio": delta(func(r routed) float64 { return float64(r.Via12) }),
		"hpwl_ratio":  delta(func(r routed) float64 { return float64(r.HPWL) }),
		"drv_ratio":   delta(func(r routed) float64 { return float64(r.Overflow) }),
		"wns_ratio":   delta(func(r routed) float64 { return r.WNS }),
	}
}

// tracedOp is one traced flow with its spans, root first.
type tracedOp struct {
	op
	spans []span
}

// perLayerValues computes the traced run's metrics, scaling times by the
// run's calibration. overheadPct compares the traced flows with untraced
// flows of the same designs.
func perLayerValues(traced []tracedOp, scale, overheadPct float64) map[string]float64 {
	n := float64(len(traced))
	m := map[string]float64{}
	add := func(name string, v float64) { m[name] += v / n }
	for _, t := range traced {
		byName := map[string]span{}
		var children time.Duration
		for _, s := range t.spans[1:] {
			byName[s.Name] = s
			children += s.dur()
		}
		root, o := t.spans[0], t.Out
		secs := func(names ...string) float64 {
			var d time.Duration
			for _, s := range names {
				d += byName[s].dur()
			}
			return scale * d.Seconds()
		}
		opt, ri, rf := byName[stOpt].Delta, byName[stRouteInit].Delta, byName[stRouteFinal].Delta

		add("lp.solves", float64(root.Delta.LP.Solves))
		add("lp.pivots", float64(root.Delta.LP.Pivots))
		add("lp.refactors", float64(root.Delta.LP.Refactors))
		add("lp.fill_nnz", float64(root.Delta.LP.FillNnz))
		add("lp.eta_nnz", float64(root.Delta.LP.EtaNnz))
		add("core.vm1opt_s", secs(stOpt))
		add("core.pairs", float64(o.Pairs))
		add("core.mallocs", float64(opt.Mallocs))
		add("core.alloc_mb", float64(opt.AllocBytes)/mb)
		add("core.align_final", float64(o.Opt.Alignments))
		add("core.obj_gain_pct", 100*ratio(o.OptInit.Value-o.Opt.Value, math.Abs(o.OptInit.Value)))
		add("route.init_s", secs(stRouteInit))
		add("route.final_s", secs(stRouteFinal))
		add("route.mallocs", float64(ri.Mallocs+rf.Mallocs))
		add("route.alloc_mb", float64(ri.AllocBytes+rf.AllocBytes)/mb)
		add("route.failed_conns", float64(o.Init.FailedConns+o.Final.FailedConns))
		add("route.overflow_init", float64(o.Init.Overflow))
		add("route.overflow_final", float64(o.Final.Overflow))
		add("route.dm1_init", float64(o.Init.DM1))
		add("cells.library_s", secs(stLibrary))
		add("netlist.generate_s", secs(stNetlist))
		add("layout.floorplan_s", secs(stFloorplan))
		add("place.global_s", secs(stPlace))
		add("place.hpwl_um", um(o.Init.HPWL))
		add("sta.analyze_s", secs(stSTAInit, stSTAFinal))
		add("sta.wns_final_ns", o.Final.WNS)
		add("objective.rescan_s", secs(stObjective))
		add("lefdef.write_s", secs(stDEFWrite))
		add("lefdef.parse_s", secs(stDEFParse))
		add("lefdef.def_mb", float64(o.DEFBytes)/mb)
		add("gc.cycles", float64(root.Delta.GCCycles))
		add("gc.pause_ms", scale*float64(root.Delta.GCPauseNs)/1e6)
		add("heap.alloc_mb", float64(root.Delta.AllocBytes)/mb)
		add("flow.self_s", scale*(root.dur()-children).Seconds())
	}
	m["lp.pivots_per_solve"] = ratio(m["lp.pivots"], m["lp.solves"])
	m["lp.fill_per_refactor"] = ratio(m["lp.fill_nnz"], m["lp.refactors"])
	m["lp.ns_per_pivot"] = ratio(m["core.vm1opt_s"]*1e9, m["lp.pivots"])
	m["core.s_per_pair"] = ratio(m["core.vm1opt_s"], m["core.pairs"])
	m["trace.overhead_pct"] = overheadPct
	return m
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report attaches units to computed values, in spec order, and fails if a
// declared metric was not computed.
func report(specs []metricSpec, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s not computed", s.Name)
		}
		out[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	return out, nil
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// quartiles returns q1, median and q3 by the method of Python's
// statistics.quantiles(v, n=4) (exclusive).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
