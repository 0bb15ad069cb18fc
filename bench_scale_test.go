// Scale benchmarks for the optimizer: full flows at growing instance
// counts, recording wall time, peak live heap and routed QoR. TestEmitBenchScaleJSON regenerates BENCH_scale.json,
// the machine-readable record behind the "10x design scale at sublinear
// memory" claim (`make bench-scale`); TestScaleSweepSmoke in
// internal/expt is the fast CI-sized cousin (`make bench-scale-smoke`).
package vm1place_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"vm1place/internal/cells"
	"vm1place/internal/core"
	"vm1place/internal/expt"
	"vm1place/internal/layout"
	"vm1place/internal/netlist"
	"vm1place/internal/place"
	"vm1place/internal/tech"
)

// distOptAt runs one deterministic DistOpt (node-capped, no wall
// deadline) at the given worker count and returns the placement. Used by
// the invariance pre-gate below.
func distOptAt(t *testing.T, workers int) *layout.Placement {
	t.Helper()
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.ClosedM1)
	d := netlist.MustGenerate(lib, netlist.DefaultGenConfig("bench-shard-det", 300, 5))
	p := layout.MustNewFloorplan(tc, d, 0.75)
	if err := place.Global(p, place.Options{}); err != nil {
		t.Fatal(err)
	}
	prm := core.DefaultParams(tc, tech.ClosedM1)
	prm.Workers = workers
	prm.MaxNodes = 40
	prm.TimeLimit = 0
	ps := core.ParamSet{BW: expt.UmToDBU(10), BH: expt.UmToDBU(10), LX: 3, LY: 1}
	core.DistOpt(p, prm, ps, 0, 0, true, false)
	return p
}

// TestEmitBenchScaleJSON regenerates BENCH_scale.json: the worker-count
// bitwise-invariance gate, then a full-flow series on the jpeg design
// whose largest point (scale 2.0, 109140 instances) is the
// >= 1e5-instance acceptance run. Each point records build/opt/route
// wall seconds, the peak sampled live heap, and routed QoR. The series
// also computes the sublinearity gate: peak heap must grow slower than
// the window count (window count is proportional to instance count here
// — utilization and the 20 um window size are fixed across the sweep, so
// die area scales with the instance count). Skipped unless BENCH_JSON is set — the largest
// points run a full flow on a 1e5+-instance design, expect the better
// part of an hour on one core:
//
//	BENCH_JSON=1 go test -run TestEmitBenchScaleJSON -timeout 180m .
func TestEmitBenchScaleJSON(t *testing.T) {
	if os.Getenv("BENCH_JSON") == "" {
		t.Skip("set BENCH_JSON=1 to regenerate BENCH_scale.json")
	}

	// Gate 1: the scale series only means anything if every worker count
	// computes the same answer. One deterministic pass per count on
	// identical placements, bit-compared (mirrors BENCH_core.json's
	// placements_identical gate; TestDataflowMatchesBarrierReference
	// covers the full VM1Opt loop in the regular test suite).
	base := distOptAt(t, 1)
	for _, k := range []int{2, 4} {
		pk := distOptAt(t, k)
		for i := range base.SiteX {
			if pk.SiteX[i] != base.SiteX[i] || pk.Row[i] != base.Row[i] || pk.Flip[i] != base.Flip[i] {
				t.Fatalf("placements diverge between Workers=1 and Workers=%d at inst %d", k, i)
			}
		}
	}

	// Series: full flows. jpeg spans 5457 -> 109140 instances across
	// these scales (the 2.0 point is the >= 1e5 acceptance run).
	design := "jpeg"
	scales := []float64{0.1, 0.5, 2.0}
	cfg := expt.SuiteConfig{Scale: 1, Workers: 1}
	pts, err := expt.RunScaleSweep(cfg, design, scales)
	if err != nil {
		t.Fatal(err)
	}
	expt.WriteScaleSweep(os.Stdout, pts)

	// Sublinearity: compare the smallest and largest sizes. Window count
	// scales with instance count (fixed util and window size), so
	// peak-heap growth below the instance-count growth is growth below
	// the window-count growth.
	var small, large *expt.ScalePoint
	for i := range pts {
		p := &pts[i]
		if small == nil || p.NumInsts < small.NumInsts {
			small = p
		}
		if large == nil || p.NumInsts > large.NumInsts {
			large = p
		}
	}
	if small == nil || large == nil || small == large {
		t.Fatal("scale series too small to compute growth")
	}
	peakGrowth := large.PeakHeapMB / small.PeakHeapMB
	windowGrowth := float64(large.NumInsts) / float64(small.NumInsts)
	t.Logf("peak heap growth %.2fx over %.2fx window growth", peakGrowth, windowGrowth)

	type pointJSON struct {
		Design     string  `json:"design"`
		NumInsts   int     `json:"num_insts"`
		BuildSec   float64 `json:"build_sec"`
		OptSec     float64 `json:"opt_sec"`
		RouteSec   float64 `json:"route_sec"`
		PeakHeapMB float64 `json:"peak_heap_mb"`
		RWL        int64   `json:"rwl"`
		DM1        int     `json:"dm1"`
		DRVs       int     `json:"drvs"`
	}
	out := struct {
		Note                string      `json:"note"`
		GOMAXPROCS          int         `json:"gomaxprocs"`
		Workers             int         `json:"workers"`
		PlacementsIdentical bool        `json:"placements_identical"`
		PeakHeapGrowth      float64     `json:"peak_heap_growth"`
		WindowGrowth        float64     `json:"window_growth"`
		SublinearPeakHeap   bool        `json:"sublinear_peak_heap"`
		Points              []pointJSON `json:"points"`
	}{
		Note:                "regenerate with: BENCH_JSON=1 go test -run TestEmitBenchScaleJSON -timeout 180m . (or make bench-scale); window count is proportional to num_insts (fixed util, 20um windows)",
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		Workers:             cfg.Workers,
		PlacementsIdentical: true,
		PeakHeapGrowth:      peakGrowth,
		WindowGrowth:        windowGrowth,
		SublinearPeakHeap:   peakGrowth < windowGrowth,
	}
	for _, p := range pts {
		out.Points = append(out.Points, pointJSON{
			Design: p.Design, NumInsts: p.NumInsts,
			BuildSec: p.BuildSec, OptSec: p.OptSec, RouteSec: p.RouteSec,
			PeakHeapMB: p.PeakHeapMB, RWL: p.RWL, DM1: p.DM1, DRVs: p.DRVs,
		})
	}
	if !out.SublinearPeakHeap {
		t.Errorf("peak heap growth %.2fx not below window growth %.2fx", peakGrowth, windowGrowth)
	}
	buf, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_scale.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
