package main

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"time"

	"vm1place/internal/cells"
	"vm1place/internal/core"
	"vm1place/internal/expt"
	"vm1place/internal/flow"
	"vm1place/internal/layout"
	"vm1place/internal/lefdef"
	"vm1place/internal/lp"
	"vm1place/internal/netlist"
	"vm1place/internal/place"
	"vm1place/internal/route"
	"vm1place/internal/sta"
	"vm1place/internal/tech"
)

// Fixed flow settings shared by every workload. Workers is 2 because the
// reference host has two cores: the benchmark is one process with at most
// two busy threads.
const (
	util    = 0.75
	workers = 2
)

// workload is one family of benchmark inputs: a design size and an
// optimizer configuration. A run flows fresh designs, all derived from the
// run's seed, until its time is up.
type workload struct {
	Name  string
	Why   string
	Insts int
	// Seed is the netlist seed base of a run that names none.
	Seed     int64
	Arch     tech.Arch
	Seq      core.Sequence
	MaxOuter int // DistOpt pairs per parameter set; 0 runs to θ convergence
	Shards   int
	// QoRDesigns is how many designs every run flows at least; the QoR
	// metrics cover exactly these, so they do not depend on machine speed.
	QoRDesigns int
}

// ps is one metaheuristic parameter set in the paper's notation: square
// window side in µm, lx sites, ly rows.
func ps(sideUm float64, lx, ly int) core.ParamSet {
	return core.ParamSet{BW: expt.UmToDBU(sideUm), BH: expt.UmToDBU(sideUm), LX: lx, LY: ly}
}

// workloads vary the properties the optimizer's cost depends on: window
// size and perturbation range (MILP size), formulation (ClosedM1 alignment
// vs OpenM1 overlap rows), sequence length and sharding, and the share of
// the flow spent outside the optimizer. README.md gives the layer each one
// stresses, and why the paper's (20 µm, lx 4, ly 1) point is not among
// them.
var workloads = []workload{
	{
		Name:  "closedm1-win10",
		Why:   "ClosedM1, 1000 instances, U=(10um, lx 3, ly 1), one pair: window MILPs are most of the flow",
		Insts: 1000, Seed: 102, Arch: tech.ClosedM1,
		Seq: core.Sequence{ps(10, 3, 1)}, MaxOuter: 1, QoRDesigns: 16,
	},
	{
		Name:  "openm1-win10",
		Why:   "the same windows on the OpenM1 overlap formulation (gamma and epsilon rows) through the same core, milp and lp layers",
		Insts: 1000, Seed: 101, Arch: tech.OpenM1,
		Seq: core.Sequence{ps(10, 3, 1)}, MaxOuter: 1, QoRDesigns: 12,
	},
	{
		Name:  "seq-sharded",
		Why:   "U=(10um,4,0) then (20um,4,0) to theta convergence on 2 shards: tiny MILPs, grid shifts, per-window overhead",
		Insts: 600, Seed: 101, Arch: tech.ClosedM1,
		Seq: core.Sequence{ps(10, 4, 0), ps(20, 4, 0)}, Shards: 2, QoRDesigns: 24,
	},
	{
		Name:  "route-heavy",
		Why:   "1800 instances, one cheap pair (20um, lx 2, ly 0): routing is ~94% of the flow, opt ~5%",
		Insts: 1800, Seed: 103, Arch: tech.ClosedM1,
		Seq: core.Sequence{ps(20, 2, 0)}, MaxOuter: 1, QoRDesigns: 10,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// designSeed is the netlist seed of design j of a run seeded with base.
func designSeed(base int64, j int) int64 { return base*1000 + int64(j) }

// params is the optimizer configuration of w: paper defaults with the
// wall-clock MILP budget disabled, so only the MaxNodes cap bounds a window
// and opt wall time measures work rather than the budget.
func (w workload) params(t *tech.Tech) core.Params {
	prm := core.DefaultParams(t, w.Arch)
	prm.TimeLimit = 0
	prm.Workers = workers
	prm.MaxOuterIters = w.MaxOuter
	prm.Shards = w.Shards
	return prm
}

// routed is the routed and timed state of one placement.
type routed struct {
	DM1, Via12, Overflow, FailedConns int
	RWL, HPWL                         int64
	WNS                               float64
}

// outcome is everything one flow produces that must not depend on timing:
// the determinism gate compares it across flows of the same design.
type outcome struct {
	Init, Final    routed
	OptInit, Opt   core.Objective
	Rescan         core.Objective
	Pairs          int
	LP             lp.Stats
	DEFBytes       int
	LegalErr       string
	RoundTripExact bool
}

// op is one flow of one design.
type op struct {
	Design  int
	Out     outcome
	Flow    time.Duration
	Timings []flow.Timing
	Err     error
}

// Stage names, in pipeline order.
const (
	stLibrary    = "library"
	stNetlist    = "netlist"
	stFloorplan  = "floorplan"
	stPlace      = "place"
	stRouteInit  = "route_init"
	stSTAInit    = "sta_init"
	stOpt        = "opt"
	stRouteFinal = "route_final"
	stSTAFinal   = "sta_final"
	stObjective  = "objective"
	stDEFWrite   = "def_write"
	stDEFParse   = "def_parse"
)

// setupStages build the placed input design.
var setupStages = []string{stLibrary, stNetlist, stFloorplan, stPlace}

func routeOnce(ctx context.Context, p *layout.Placement, arch tech.Arch) (route.Metrics, error) {
	rcfg := route.DefaultConfig(p.Tech, arch)
	rcfg.Workers = workers
	m, err := route.New(p, rcfg).RouteAllCtx(ctx)
	if err != nil {
		return m, fmt.Errorf("route: %w", err)
	}
	return m, nil
}

// pipeline is the flow of one design as one stage per call into a layer's
// public function, in expt.RunFlowCtx's order, recording into o.
func pipeline(w workload, seed int64, o *outcome) *flow.Pipeline {
	t := tech.Default()
	prm := w.params(t)
	var (
		lib *cells.Library
		d   *netlist.Design
		def bytes.Buffer
	)
	routeStage := func(r *routed) func(context.Context, *flow.State) error {
		return func(ctx context.Context, st *flow.State) error {
			m, err := routeOnce(ctx, st.Placement, w.Arch)
			*r = routed{DM1: m.DM1, Via12: m.Via12, Overflow: m.Overflow, FailedConns: m.FailedConns,
				RWL: m.RWL, HPWL: st.Placement.TotalHPWL()}
			return err
		}
	}
	staStage := func(r *routed) func(context.Context, *flow.State) error {
		return func(_ context.Context, st *flow.State) error {
			r.WNS = sta.Analyze(st.Placement, sta.DefaultConfig(), nil).WNS
			return nil
		}
	}
	return flow.New(
		flow.Func(stLibrary, func(context.Context, *flow.State) error {
			var err error
			lib, err = cells.NewLibrary(t, w.Arch)
			return err
		}),
		flow.Func(stNetlist, func(context.Context, *flow.State) error {
			var err error
			d, err = netlist.Generate(lib, netlist.DefaultGenConfig(w.Name, w.Insts, seed))
			return err
		}),
		flow.Func(stFloorplan, func(_ context.Context, st *flow.State) error {
			var err error
			st.Placement, err = layout.NewFloorplan(t, d, util)
			return err
		}),
		flow.Func(stPlace, func(_ context.Context, st *flow.State) error {
			return place.Global(st.Placement, place.Options{})
		}),
		flow.Func(stRouteInit, routeStage(&o.Init)),
		flow.Func(stSTAInit, staStage(&o.Init)),
		flow.Func(stOpt, func(ctx context.Context, st *flow.State) error {
			before := lp.GlobalStats()
			res, err := core.VM1OptCtx(ctx, st.Placement, prm, w.Seq)
			o.LP = lpDelta(before, lp.GlobalStats())
			o.OptInit, o.Opt, o.Pairs = res.Initial, res.Final, res.Iters
			return err
		}),
		flow.Func(stRouteFinal, routeStage(&o.Final)),
		flow.Func(stSTAFinal, staStage(&o.Final)),
		flow.Func(stObjective, func(_ context.Context, st *flow.State) error {
			o.Rescan = core.CalculateObj(st.Placement, prm)
			return nil
		}),
		flow.Func(stDEFWrite, func(_ context.Context, st *flow.State) error {
			return lefdef.WriteDEF(&def, st.Placement)
		}),
		flow.Func(stDEFParse, func(_ context.Context, st *flow.State) error {
			o.DEFBytes = def.Len()
			q, err := lefdef.ParseDEF(&def, t, lib)
			if err != nil {
				return err
			}
			p := st.Placement
			o.RoundTripExact = slices.Equal(q.SiteX, p.SiteX) && slices.Equal(q.Row, p.Row) && slices.Equal(q.Flip, p.Flip)
			return nil
		}),
	)
}

func lpDelta(a, b lp.Stats) lp.Stats {
	return lp.Stats{
		Solves:    b.Solves - a.Solves,
		Pivots:    b.Pivots - a.Pivots,
		Refactors: b.Refactors - a.Refactors,
		FillNnz:   b.FillNnz - a.FillNnz,
		EtaNnz:    b.EtaNnz - a.EtaNnz,
	}
}

// runOp flows design j of the run seeded with base once; obs, when
// non-nil, observes the stages. The placement's legality is checked after
// the pipeline, outside its timings.
func runOp(ctx context.Context, w workload, base int64, j int, obs flow.Observer) op {
	r := op{Design: j}
	pl := pipeline(w, designSeed(base, j), &r.Out)
	if obs != nil {
		pl.Observe(obs)
	}
	st := &flow.State{}
	start := time.Now()
	err := pl.Run(ctx, st)
	r.Flow = time.Since(start)
	r.Timings = st.Timings
	if err != nil {
		r.Err = fmt.Errorf("%s design %d: %w", w.Name, j, err)
		return r
	}
	if err := st.Placement.CheckLegal(); err != nil {
		r.Out.LegalErr = err.Error()
	}
	return r
}

// productMismatch pins the harness to the product path: the design of r,
// flowed by expt.RunFlowCtx (the path of cmd/vm1opt and the experiments),
// must reach exactly the QoR, objective and simplex work r reached.
func productMismatch(ctx context.Context, w workload, base int64, r op) []string {
	if r.Err != nil {
		return nil
	}
	before := lp.GlobalStats()
	res, err := expt.RunFlowCtx(ctx, expt.DesignSpec{Name: w.Name, NumInsts: w.Insts, Seed: designSeed(base, r.Design)}, expt.FlowConfig{
		Arch: w.Arch, Util: util, Sequence: w.Seq, MaxOuterIters: w.MaxOuter, Workers: workers, Shards: w.Shards, TimeLimit: -1,
	})
	if err != nil {
		return []string{fmt.Sprintf("product flow: %v", err)}
	}
	snap := func(s expt.Snapshot, failed int) routed {
		return routed{DM1: s.DM1, Via12: s.Via12, Overflow: s.DRVs, FailedConns: failed, RWL: s.RWL, HPWL: s.HPWL, WNS: s.WNS}
	}
	got := r.Out
	want := got
	want.Init, want.Final = snap(res.Init, got.Init.FailedConns), snap(res.Final, got.Final.FailedConns)
	want.OptInit, want.Opt = res.OptInitial, res.OptFinal
	want.LP = lpDelta(before, lp.GlobalStats())
	if got != want {
		return []string{fmt.Sprintf("harness %+v != product path %+v", got, want)}
	}
	return nil
}

// failures applies the output correctness gate to a finished flow: the
// optimized placement is legal, the optimizer's incremental objective
// equals a rescan, the DEF handoff reproduces the placement exactly, and
// the optimizer gained direct vertical M1 routes.
func (r op) failures() []string {
	if r.Err != nil {
		return []string{r.Err.Error()}
	}
	o := r.Out
	var f []string
	if o.LegalErr != "" {
		f = append(f, "illegal placement: "+o.LegalErr)
	}
	if o.Rescan != o.Opt {
		f = append(f, fmt.Sprintf("objective rescan %+v != optimizer %+v", o.Rescan, o.Opt))
	}
	if !o.RoundTripExact {
		f = append(f, "DEF round trip changed the placement")
	}
	if o.Final.DM1 <= o.Init.DM1 {
		f = append(f, fmt.Sprintf("dM1 %d -> %d did not improve", o.Init.DM1, o.Final.DM1))
	}
	return f
}

// stage returns the recorded duration of the named stage.
func (r op) stage(name string) time.Duration {
	st := flow.State{Timings: r.Timings}
	return st.StageDuration(name)
}
