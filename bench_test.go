// Benchmarks regenerating the paper's evaluation artifacts (one per table
// and figure — see DESIGN.md §4) plus microbenchmarks for the heavy
// substrates. Figure/table benches run at a small design scale so the
// default `go test -bench=.` completes in minutes; use cmd/exptables for
// full-size runs.
package vm1place_test

import (
	"bufio"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"vm1place/internal/cells"
	"vm1place/internal/core"
	"vm1place/internal/expt"
	"vm1place/internal/layout"
	"vm1place/internal/lp"
	"vm1place/internal/milp"
	"vm1place/internal/netlist"
	"vm1place/internal/objective"
	"vm1place/internal/place"
	"vm1place/internal/route"
	"vm1place/internal/sta"
	"vm1place/internal/tech"
)

// benchScale keeps each figure bench to roughly a minute.
const benchScale = 0.02

func benchCfg(b *testing.B) expt.SuiteConfig {
	b.Helper()
	return expt.SuiteConfig{Scale: benchScale, Workers: 8}
}

// BenchmarkFig5WindowSweep regenerates ExptA-1 / Figure 5 (window size
// scalability; perturbation fixed at the paper's preferred lx=4, ly=1).
func BenchmarkFig5WindowSweep(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		pts, err := expt.RunFig5(context.Background(), cfg, []float64{10, 20, 40}, [][2]int{{4, 1}})
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 3 {
			b.Fatal("wrong point count")
		}
	}
}

// BenchmarkFig6AlphaSweep regenerates ExptA-2 / Figure 6 (α sensitivity).
func BenchmarkFig6AlphaSweep(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		pts, err := expt.RunFig6(context.Background(), cfg, tech.ClosedM1, []float64{0, 1200, 6000})
		if err != nil {
			b.Fatal(err)
		}
		if pts[2].DM1 < pts[0].DM1 {
			b.Fatalf("alpha sweep shape broken: %+v", pts)
		}
	}
}

// BenchmarkFig7Sequences regenerates ExptA-3 / Figure 7 (U sequences).
func BenchmarkFig7Sequences(b *testing.B) {
	cfg := benchCfg(b)
	seqs := []expt.SequenceSpec{expt.PaperSequences[0], expt.PaperSequences[3]}
	for i := 0; i < b.N; i++ {
		pts, err := expt.RunFig7(context.Background(), cfg, seqs)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 2 {
			b.Fatal("wrong point count")
		}
	}
}

// BenchmarkTable2ClosedM1 regenerates the ClosedM1 half of Table 2.
func BenchmarkTable2ClosedM1(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		rows, err := expt.RunTable2(context.Background(), cfg, tech.ClosedM1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkTable2OpenM1 regenerates the OpenM1 half of Table 2.
func BenchmarkTable2OpenM1(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		rows, err := expt.RunTable2(context.Background(), cfg, tech.OpenM1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig8DRVSweep regenerates the Figure 8 congestion study.
func BenchmarkFig8DRVSweep(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		pts, err := expt.RunFig8(context.Background(), cfg, []float64{0.75, 0.84})
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 2 {
			b.Fatal("wrong point count")
		}
	}
}

// BenchmarkAblationJointFlip compares sequential perturb-then-flip against
// joint optimization (the §4.2 design choice).
func BenchmarkAblationJointFlip(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunAblationJointFlip(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate microbenchmarks -------------------------------------------

func placedDesign(b *testing.B, arch tech.Arch, n int) *layout.Placement {
	b.Helper()
	t := tech.Default()
	lib := cells.MustNewLibrary(t, arch)
	d := netlist.MustGenerate(lib, netlist.DefaultGenConfig("bench", n, 5))
	p := layout.MustNewFloorplan(t, d, 0.75)
	if err := place.Global(p, place.Options{}); err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkGlobalPlace measures the global placer + legalizer.
func BenchmarkGlobalPlace(b *testing.B) {
	t := tech.Default()
	lib := cells.MustNewLibrary(t, tech.ClosedM1)
	d := netlist.MustGenerate(lib, netlist.DefaultGenConfig("bench", 2000, 5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := layout.MustNewFloorplan(t, d, 0.75)
		if err := place.Global(p, place.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteAllSeq measures a full routing pass, rip-up included, of
// a 2000-instance ClosedM1 design.
func BenchmarkRouteAllSeq(b *testing.B) {
	p := placedDesign(b, tech.ClosedM1, 2000)
	r := route.New(p, route.DefaultConfig(p.Tech, tech.ClosedM1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := r.RouteAllCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if m.RWL == 0 {
			b.Fatal("no routing")
		}
	}
}

// BenchmarkSTA measures a timing/power analysis pass.
func BenchmarkSTA(b *testing.B) {
	p := placedDesign(b, tech.ClosedM1, 5000)
	cfg := sta.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := sta.Analyze(p, cfg, nil)
		if rep.TotalPowerMW <= 0 {
			b.Fatal("bad report")
		}
	}
}

// reportLPStats attaches the simplex-kernel counters (factor.go) accumulated
// since start to the benchmark as per-op custom metrics, so kernel regressions
// show up as pivot/refactorization/fill growth even when wall time is noisy.
func reportLPStats(b *testing.B, start lp.Stats) {
	b.Helper()
	end := lp.GlobalStats()
	n := float64(b.N)
	b.ReportMetric(float64(end.Solves-start.Solves)/n, "lp-solves/op")
	b.ReportMetric(float64(end.Pivots-start.Pivots)/n, "pivots/op")
	b.ReportMetric(float64(end.Refactors-start.Refactors)/n, "refactors/op")
	b.ReportMetric(float64(end.FillNnz-start.FillNnz)/n, "fill-nnz/op")
}

// BenchmarkDistOptPass measures one parallel window-optimization pass
// (kept under its seed name so runs stay comparable across the repo's
// history).
func BenchmarkDistOptPass(b *testing.B) {
	p := placedDesign(b, tech.ClosedM1, 800)
	prm := core.DefaultParams(p.Tech, tech.ClosedM1)
	prm.Workers = 8
	ps := core.ParamSet{BW: expt.UmToDBU(20), BH: expt.UmToDBU(20), LX: 4, LY: 1}
	b.ResetTimer()
	stats := lp.GlobalStats()
	for i := 0; i < b.N; i++ {
		if _, err := core.DistOpt(context.Background(), p, prm, ps, 0, 0, true, false); err != nil {
			b.Fatal(err)
		}
	}
	reportLPStats(b, stats)
}

// BenchmarkCalculateObjIncremental measures ObjTracker.ApplyMoves — the
// incremental objective update DistOpt performs after every window family —
// on batches of 16 random relocations (a typical family's accepted-move
// count). Contrast with BenchmarkCalculateObjFull, the oracle rescan the
// tracker replaces.
func BenchmarkCalculateObjIncremental(b *testing.B) {
	p := placedDesign(b, tech.ClosedM1, 800)
	prm := core.DefaultParams(p.Tech, tech.ClosedM1)
	tr := core.NewObjTracker(p, prm)
	rng := rand.New(rand.NewSource(7))
	moves := make([]core.Move, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range moves {
			inst := rng.Intn(len(p.Design.Insts))
			wi := p.Design.Insts[inst].Master.WidthSites
			moves[k] = core.Move{
				Inst: inst,
				Site: rng.Intn(p.NumSites - wi + 1),
				Row:  rng.Intn(p.NumRows),
				Flip: rng.Intn(2) == 0,
			}
		}
		obj := tr.ApplyMoves(moves)
		if obj.HPWL <= 0 {
			b.Fatal("bad objective")
		}
	}
}

// BenchmarkCalculateObjFull measures the full-design objective rescan.
func BenchmarkCalculateObjFull(b *testing.B) {
	p := placedDesign(b, tech.ClosedM1, 800)
	prm := core.DefaultParams(p.Tech, tech.ClosedM1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := core.CalculateObj(p, prm)
		if obj.HPWL <= 0 {
			b.Fatal("bad objective")
		}
	}
}

// benchObjectiveEval measures the full-design objective rescan for one
// registered geometry objective — the per-objective cost of the pluggable
// PairEval/PairAlpha hooks on the rescan hot path.
func benchObjectiveEval(b *testing.B, name string) {
	b.Helper()
	o, err := objective.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	p := placedDesign(b, o.Arch(), 800)
	prm := core.DefaultParams(p.Tech, o.Arch())
	prm.Objective = o
	netAlpha := make([]float64, len(p.Design.Nets))
	for ni := range netAlpha {
		netAlpha[ni] = 1 + float64(ni%5)/4 // exercise the per-net α path
	}
	prm.NetAlpha = netAlpha
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := core.CalculateObj(p, prm)
		if obj.HPWL <= 0 {
			b.Fatal("bad objective")
		}
	}
}

// BenchmarkObjectiveEval runs the rescan bench once per registered
// objective; new objectives join the series the moment they register.
func BenchmarkObjectiveEval(b *testing.B) {
	for _, name := range objective.Names() {
		b.Run(name, func(b *testing.B) { benchObjectiveEval(b, name) })
	}
}

// BenchmarkLPSolve measures the simplex on a random dense-ish LP.
func BenchmarkLPSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	m := lp.NewModel()
	const nv, nr = 200, 120
	vars := make([]int, nv)
	for i := range vars {
		vars[i] = m.AddVar(0, 10, rng.Float64()*2-1, "v")
	}
	for r := 0; r < nr; r++ {
		terms := make([]lp.Term, 0, 6)
		for k := 0; k < 6; k++ {
			terms = append(terms, lp.Term{Var: vars[rng.Intn(nv)], Coef: float64(rng.Intn(9) - 4)})
		}
		m.AddRow(lp.LE, float64(rng.Intn(50)+10), terms...)
	}
	b.ResetTimer()
	stats := lp.GlobalStats()
	for i := 0; i < b.N; i++ {
		sol := m.Solve()
		if sol.Status != lp.Optimal {
			b.Fatalf("status %s", sol.Status)
		}
	}
	reportLPStats(b, stats)
}

// benchHost names the host, toolchain and tree a BENCH file was measured
// on, so that its time series can tell a code change from a host change.
type benchHost struct {
	CPU       string `json:"cpu"`
	NumCPU    int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	// Commit is `git describe --always --dirty` of the working tree:
	// "-dirty" marks uncommitted changes on top of the named commit.
	Commit string `json:"commit"`
}

// hostInfo reads the CPU model from /proc/cpuinfo where it exists and the
// commit from git where it runs; either reads "unknown" otherwise.
func hostInfo() benchHost {
	h := benchHost{CPU: "unknown", NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// TestEmitBenchCoreJSON regenerates BENCH_core.json, the machine-readable
// record of the core-substrate microbenchmarks that the performance
// acceptance gates compare against, plus a determinism check that window
// Workers counts 1 and 4 produce identical placements. Skipped unless
// BENCH_JSON is set (it runs the real benchmarks, minutes of wall time):
//
//	BENCH_JSON=1 go test -run TestEmitBenchCoreJSON -timeout 30m .
func TestEmitBenchCoreJSON(t *testing.T) {
	if os.Getenv("BENCH_JSON") == "" {
		t.Skip("set BENCH_JSON=1 to regenerate BENCH_core.json")
	}
	type entry struct {
		NsPerOp     int64 `json:"ns_per_op"`
		AllocsPerOp int64 `json:"allocs_per_op"`
		BytesPerOp  int64 `json:"bytes_per_op"`
		N           int   `json:"n"`
		// Workers records the window-level parallelism of the run
		// (0 = substrate default).
		Workers int `json:"workers,omitempty"`
		// Extra carries the custom per-op metrics a benchmark reported —
		// for the LP-backed benches the simplex-kernel counters
		// (pivots/op, refactors/op, fill-nnz/op, lp-solves/op).
		Extra map[string]float64 `json:"extra,omitempty"`
	}

	// The series are only comparable across hosts if the window worker
	// count cannot change results: run one untimed pass per count on
	// identical placements and require bit-identical results (mirrors
	// BENCH_route.json's metrics_identical gate).
	distOptAt := func(workers int) *layout.Placement {
		tc := tech.Default()
		lib := cells.MustNewLibrary(tc, tech.ClosedM1)
		d := netlist.MustGenerate(lib, netlist.DefaultGenConfig("bench-det", 300, 5))
		p := layout.MustNewFloorplan(tc, d, 0.75)
		if err := place.Global(p, place.Options{}); err != nil {
			t.Fatal(err)
		}
		prm := core.DefaultParams(tc, tech.ClosedM1)
		prm.Workers = workers
		prm.MaxNodes = 40
		prm.TimeLimit = 0
		ps := core.ParamSet{BW: expt.UmToDBU(10), BH: expt.UmToDBU(10), LX: 3, LY: 1}
		if _, err := core.DistOpt(context.Background(), p, prm, ps, 0, 0, true, false); err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1, p4 := distOptAt(1), distOptAt(4)
	for i := range p1.SiteX {
		if p1.SiteX[i] != p4.SiteX[i] || p1.Row[i] != p4.Row[i] || p1.Flip[i] != p4.Flip[i] {
			t.Fatalf("placements diverge between window worker counts at inst %d", i)
		}
	}

	type bench struct {
		name    string
		fn      func(*testing.B)
		workers int
	}
	benches := []bench{
		{"DistOptPass", BenchmarkDistOptPass, 8},
		{"LPSolve", BenchmarkLPSolve, 0},
		{"CalculateObjIncremental", BenchmarkCalculateObjIncremental, 0},
		{"CalculateObjFull", BenchmarkCalculateObjFull, 0},
	}
	// Per-objective rescan series (make bench-objective runs the same
	// benchmarks standalone); Names() is sorted, so the series order is
	// stable run to run.
	for _, name := range objective.Names() {
		benches = append(benches, bench{"ObjectiveEval/" + name,
			func(b *testing.B) { benchObjectiveEval(b, name) }, 0})
	}
	out := struct {
		Note       string `json:"note"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		benchHost
		PlacementsIdentical bool             `json:"placements_identical"`
		Results             map[string]entry `json:"results"`
	}{
		Note:                "regenerate with: BENCH_JSON=1 go test -run TestEmitBenchCoreJSON -timeout 30m . (or make bench-core)",
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		benchHost:           hostInfo(),
		PlacementsIdentical: true,
		Results:             map[string]entry{},
	}
	for _, bm := range benches {
		r := testing.Benchmark(bm.fn)
		out.Results[bm.name] = entry{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
			Workers:     bm.workers,
			Extra:       r.Extra,
		}
		t.Logf("%s: %s", bm.name, r)
	}
	buf, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_core.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEmitBenchRouteJSON regenerates BENCH_route.json: RouteAllSeq on
// this host. Skipped unless BENCH_JSON is set:
//
//	BENCH_JSON=1 go test -run TestEmitBenchRouteJSON -timeout 30m .
func TestEmitBenchRouteJSON(t *testing.T) {
	if os.Getenv("BENCH_JSON") == "" {
		t.Skip("set BENCH_JSON=1 to regenerate BENCH_route.json")
	}
	type entry struct {
		NsPerOp     int64 `json:"ns_per_op"`
		AllocsPerOp int64 `json:"allocs_per_op"`
		BytesPerOp  int64 `json:"bytes_per_op"`
		N           int   `json:"n"`
	}
	r := testing.Benchmark(BenchmarkRouteAllSeq)
	t.Logf("RouteAllSeq: %s", r)
	out := struct {
		Note       string `json:"note"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		benchHost
		Results map[string]entry `json:"results"`
	}{
		Note:       "regenerate with: BENCH_JSON=1 go test -run TestEmitBenchRouteJSON -timeout 30m . (or make bench-route)",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		benchHost:  hostInfo(),
		Results: map[string]entry{"RouteAllSeq": {
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		}},
	}
	buf, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_route.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMILPKnapsack measures branch and bound on a 25-item knapsack.
func BenchmarkMILPKnapsack(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	m := lp.NewModel()
	mm := milp.NewModel(m)
	var terms []lp.Term
	for i := 0; i < 25; i++ {
		v := m.AddVar(0, 1, -float64(1+rng.Intn(40)), "x")
		terms = append(terms, lp.Term{Var: v, Coef: float64(1 + rng.Intn(12))})
		mm.MarkInt(v)
	}
	m.AddRow(lp.LE, 60, terms...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := milp.Solve(mm, milp.Params{})
		if res.Status != milp.Optimal {
			b.Fatalf("status %s", res.Status)
		}
	}
}
