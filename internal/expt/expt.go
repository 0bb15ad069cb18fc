// Package expt is the experiment harness of vm1place: it reproduces every
// evaluation table and figure of the DAC'17 paper (Table 2, Figures 5-8)
// on the synthetic substrate, printing the same rows/series the paper
// reports.
//
// Scale note: the harness maps the paper's µm window sizes to DBU with
// UmToDBU (1 paper-µm ≈ 1 placement site horizontally), which keeps window
// MILPs at the tens-of-cells scale our branch-and-bound solves exactly —
// the same windows-much-smaller-than-die regime as the paper. Designs are
// generated at the paper's instance counts by default, with a Scale knob
// for faster CI-size runs.
//
// Every flow run is a flow.Pipeline of four stages — build, init-route,
// optimize, final-route — threaded by one context.Context, so a deadline
// or cancellation propagates into the optimizer's window scheduler and the
// router's net commits. RunFlowCtx and every RunFig/RunTable2 sweep
// take that context and are thin stage compositions over that engine.
package expt

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"vm1place/internal/cells"
	"vm1place/internal/core"
	"vm1place/internal/flow"
	"vm1place/internal/layout"
	"vm1place/internal/netlist"
	"vm1place/internal/objective"
	"vm1place/internal/place"
	"vm1place/internal/route"
	"vm1place/internal/sta"
	"vm1place/internal/tech"
)

// ErrUnknownDesign reports a design name outside the paper's testcases.
// SuiteConfig.design wraps it, so callers can errors.Is against it.
var ErrUnknownDesign = errors.New("expt: unknown design")

// DBUPerUm is the harness's micron: 100 DBU, one placement site
// horizontally and 0.4 rows vertically (see the package comment). Paper
// window sizes convert to DBU through it (UmToDBU), and every length the
// harness prints (Table 2, Figures 6–7, the objective sweep, and the
// vm1opt, gendesign, exptables and example summaries) converts back
// through it (Um), so window sizes and wirelengths share one micron. It is
// not the LEF/DEF micron (tech.Tech.DBUPerMicron, 1000 DBU).
const DBUPerUm = 100

// UmToDBU converts a paper window size in µm to DBU.
func UmToDBU(um float64) int64 { return int64(um * DBUPerUm) }

// DesignSpec names one benchmark design of the paper (Table 2).
type DesignSpec struct {
	Name     string
	NumInsts int
	Seed     int64
}

// PaperDesigns are the four testcases with the paper's instance counts.
var PaperDesigns = []DesignSpec{
	{Name: "m0", NumInsts: 9922, Seed: 101},
	{Name: "aes", NumInsts: 12345, Seed: 102},
	{Name: "jpeg", NumInsts: 54570, Seed: 103},
	{Name: "vga", NumInsts: 68606, Seed: 104},
}

// MinScaledInsts is the instance floor ScaledDesigns clamps to: below
// it, synthetic designs degenerate (utilization targets become
// unreachable and window grids collapse to a handful of cells), so no
// scaled point is generated smaller. The floor makes tiny scales
// saturate: m0 (9922 insts) hits it below scale ≈ 0.0202, so a sweep
// sampling scales under MinScaledInsts/NumInsts returns the *same*
// design point again — identical name, instance count and seed — not a
// smaller one. Callers sweeping small scales should dedupe on NumInsts
// rather than assume every scale is distinct.
const MinScaledInsts = 200

// ScaledDesigns returns the paper designs scaled by factor, clamped to
// MinScaledInsts, for fast benches. Scales at or below
// MinScaledInsts/NumInsts all yield the identical floored spec — see
// MinScaledInsts for why callers sweeping small scales must dedupe.
func ScaledDesigns(scale float64) []DesignSpec {
	out := make([]DesignSpec, len(PaperDesigns))
	for i, d := range PaperDesigns {
		n := int(float64(d.NumInsts) * scale)
		if n < MinScaledInsts {
			n = MinScaledInsts
		}
		out[i] = DesignSpec{Name: d.Name, NumInsts: n, Seed: d.Seed}
	}
	return out
}

// FlowConfig drives one full flow run.
type FlowConfig struct {
	Arch tech.Arch
	// Objective selects a registered geometry objective by name
	// (internal/objective: "closedm1", "openm1", "netsep", "slackalpha",
	// ...). Empty keeps the paper formulation implied by Arch. When set,
	// Arch is derived from the objective's cell architecture, so callers
	// need not keep the two consistent.
	Objective string
	// SlackAlphaWeight, when > 0, derives per-net α multipliers from STA
	// slack (sta.CriticalityBetas over sta.NetSlacks, computed on the
	// placed design before optimization) and passes them to the optimizer
	// as core.Params.NetAlpha. Per-net-weighted objectives ("slackalpha")
	// consume them; uniform objectives ignore them.
	SlackAlphaWeight float64
	// MarginDBU passes through to core.Params.MarginDBU: the "netsep"
	// objective's separation margin (<= 0 keeps that objective's 4·δ
	// default).
	MarginDBU int64
	// Tech overrides the technology (nil: tech.Default()). The track-count
	// sweep runs the tech.Default6Track/Default9Track variants through it.
	Tech *tech.Tech
	Util float64
	// Alpha overrides the default α when > 0 (or exactly when AlphaSet).
	Alpha    float64
	AlphaSet bool
	// Sequence is the metaheuristic queue U (nil: the paper's preferred
	// (20, 4, 1) single-set sequence).
	Sequence core.Sequence
	// MaxOuterIters caps inner iterations per parameter set (ExptA-1
	// uses 1).
	MaxOuterIters int
	// Workers overrides the optimizer's parallel window-solver count.
	// Zero keeps the default (GOMAXPROCS). The router is sequential and
	// does not read it.
	Workers int
	// Shards is ignored, like core.Params.Shards: the dataflow window
	// scheduler replaced the sharded optimizer it selected. The field
	// stays so callers that set it keep compiling.
	Shards int
	// TimeLimit overrides the optimizer's per-window MILP wall budget:
	// positive sets it, negative disables it entirely (node-capped only —
	// with Workers=1 the whole flow is then bit-for-bit deterministic),
	// zero keeps the substrate default.
	TimeLimit time.Duration
}

// DefaultSequence is the paper's preferred single parameter set
// (bw = bh = 20µm, lx = 4, ly = 1) from ExptA-3.
func DefaultSequence() core.Sequence {
	return core.Sequence{{BW: UmToDBU(20), BH: UmToDBU(20), LX: 4, LY: 1}}
}

// resolveObjective returns the named geometry objective and the cell
// architecture it scores, or (nil, cfg.Arch) when no objective is named.
func (cfg FlowConfig) resolveObjective() (objective.GeomObjective, tech.Arch, error) {
	if cfg.Objective == "" {
		return nil, cfg.Arch, nil
	}
	o, err := objective.Lookup(cfg.Objective)
	if err != nil {
		return nil, 0, err
	}
	return o, o.Arch(), nil
}

// Params derives the optimizer parameters for a placed design: the
// architecture defaults, the config's overrides, the named objective with
// its margin, and, when SlackAlphaWeight > 0, per-net α multipliers from
// STA slack on the placement as it stands. Every flow's build stage and
// the vm1opt -def path derive their parameters here.
func (cfg FlowConfig) Params(p *layout.Placement) (core.Params, error) {
	obj, arch, err := cfg.resolveObjective()
	if err != nil {
		return core.Params{}, fmt.Errorf("expt: params: %w", err)
	}
	prm := core.DefaultParams(p.Tech, arch)
	prm.Objective = obj
	prm.MarginDBU = cfg.MarginDBU
	if cfg.AlphaSet || cfg.Alpha > 0 {
		prm.Alpha = cfg.Alpha
	}
	if cfg.MaxOuterIters > 0 {
		prm.MaxOuterIters = cfg.MaxOuterIters
	}
	if cfg.Workers > 0 {
		prm.Workers = cfg.Workers
	}
	switch {
	case cfg.TimeLimit > 0:
		prm.TimeLimit = cfg.TimeLimit
	case cfg.TimeLimit < 0:
		prm.TimeLimit = 0
	}
	if cfg.SlackAlphaWeight > 0 {
		staCfg := sta.DefaultConfig()
		prm.NetAlpha = sta.CriticalityBetas(
			sta.NetSlacks(p, staCfg, nil), staCfg.ClockPeriodNs, cfg.SlackAlphaWeight)
	}
	return prm, nil
}

// Snapshot is the full metric set of one routed placement (one half of a
// Table 2 row).
type Snapshot struct {
	DM1     int
	M1WL    int64
	Via12   int
	HPWL    int64
	RWL     int64
	WNS     float64
	PowerMW float64
	DRVs    int
}

// FlowResult is one complete before/after run.
type FlowResult struct {
	Design   string
	NumInsts int
	Arch     tech.Arch
	Util     float64
	Alpha    float64

	Init, Final Snapshot
	// OptObj holds the optimizer's own objective trace.
	OptInitial, OptFinal core.Objective
	// OptRuntime is the VM1Opt wall time; RouteRuntime covers both
	// routing passes.
	OptRuntime   time.Duration
	RouteRuntime time.Duration
}

// snapshot routes the placement and gathers all metrics. An interrupted
// routing run returns the elapsed time and the ctx error; the snapshot is
// discarded.
func snapshot(ctx context.Context, p *layout.Placement, arch tech.Arch) (Snapshot, time.Duration, error) {
	start := time.Now()
	r := route.New(p, route.DefaultConfig(p.Tech, arch))
	m, err := r.RouteAllCtx(ctx)
	elapsed := time.Since(start)
	if err != nil {
		return Snapshot{}, elapsed, err
	}
	rep := sta.Analyze(p, sta.DefaultConfig(), nil)
	return Snapshot{
		DM1:     m.DM1,
		M1WL:    m.LayerWL[tech.M1],
		Via12:   m.Via12,
		HPWL:    p.TotalHPWL(),
		RWL:     m.RWL,
		WNS:     rep.WNS,
		PowerMW: rep.TotalPowerMW,
		DRVs:    m.Overflow,
	}, elapsed, nil
}

// BuildPlacedWith generates, floorplans, places and legalizes a design on
// the given technology (tech.Default() or a track-count variant).
func BuildPlacedWith(spec DesignSpec, t *tech.Tech, arch tech.Arch, util float64) (*layout.Placement, error) {
	lib, err := cells.NewLibrary(t, arch)
	if err != nil {
		return nil, fmt.Errorf("expt: build %s: %w", spec.Name, err)
	}
	d, err := netlist.Generate(lib, netlist.DefaultGenConfig(spec.Name, spec.NumInsts, spec.Seed))
	if err != nil {
		return nil, fmt.Errorf("expt: build %s: %w", spec.Name, err)
	}
	p, err := layout.NewFloorplan(t, d, util)
	if err != nil {
		return nil, fmt.Errorf("expt: build %s: %w", spec.Name, err)
	}
	if err := place.Global(p, place.Options{}); err != nil {
		return nil, fmt.Errorf("expt: global placement failed for %s: %w", spec.Name, err)
	}
	return p, nil
}

// optimizer is the VM1Opt entry a flow variant plugs into the pipeline
// (sequential perturb-then-flip, or the joint ablation).
type optimizer func(ctx context.Context, p *layout.Placement, prm core.Params, u core.Sequence) (core.Result, error)

// runFlow composes the four-stage pipeline behind every flow variant:
//
//	build       — generate, floorplan, globally place; derive params
//	init-route  — route and snapshot the pre-optimization metrics
//	optimize    — VM1Opt (variant-selected) on the live placement
//	final-route — reroute and snapshot the post-optimization metrics
//
// The returned FlowResult holds whatever stages completed; on cancellation
// or failure the error wraps both the failing stage (*flow.StageError) and
// the underlying cause.
func runFlow(ctx context.Context, spec DesignSpec, cfg FlowConfig, opt optimizer) (FlowResult, error) {
	if cfg.Util == 0 {
		cfg.Util = 0.75
	}
	seq := cfg.Sequence
	if seq == nil {
		seq = DefaultSequence()
	}
	// Resolve the objective before any stage closure captures cfg: a named
	// objective fixes the cell architecture every stage (library synthesis,
	// routing capacity model) must agree on.
	_, arch, err := cfg.resolveObjective()
	if err != nil {
		return FlowResult{}, fmt.Errorf("expt: flow %s: %w", spec.Name, err)
	}
	cfg.Arch = arch
	bt := cfg.Tech
	if bt == nil {
		bt = tech.Default()
	}

	res := FlowResult{Design: spec.Name, Arch: cfg.Arch, Util: cfg.Util}
	var prm core.Params

	pl := flow.New(
		flow.Func("build", func(ctx context.Context, st *flow.State) error {
			p, err := BuildPlacedWith(spec, bt, cfg.Arch, cfg.Util)
			if err != nil {
				return err
			}
			st.Placement = p
			res.NumInsts = len(p.Design.Insts)
			if prm, err = cfg.Params(p); err != nil {
				return err
			}
			res.Alpha = prm.Alpha
			return nil
		}),
		flow.Func("init-route", func(ctx context.Context, st *flow.State) error {
			snap, rt, err := snapshot(ctx, st.Placement, cfg.Arch)
			res.RouteRuntime += rt
			if err != nil {
				return err
			}
			res.Init = snap
			return nil
		}),
		flow.Func("optimize", func(ctx context.Context, st *flow.State) error {
			r, err := opt(ctx, st.Placement, prm, seq)
			res.OptInitial = r.Initial
			res.OptFinal = r.Final
			res.OptRuntime = r.Duration
			return err
		}),
		flow.Func("final-route", func(ctx context.Context, st *flow.State) error {
			snap, rt, err := snapshot(ctx, st.Placement, cfg.Arch)
			res.RouteRuntime += rt
			if err != nil {
				return err
			}
			res.Final = snap
			return nil
		}),
	)
	err = pl.Run(ctx, &flow.State{})
	return res, err
}

// RunFlowCtx executes the full flow on one design: place, route (Init
// metrics), VM1Opt, reroute (Final metrics). Cancellation and deadlines
// reach every stage (the optimizer stops starting windows and commits the
// ones in flight, the router stops between nets). The partial
// FlowResult covers the completed stages.
func RunFlowCtx(ctx context.Context, spec DesignSpec, cfg FlowConfig) (FlowResult, error) {
	return runFlow(ctx, spec, cfg, core.VM1OptCtx)
}

// pct formats a percent delta.
func pct(init, final float64) string {
	if init == 0 {
		return "   n/a"
	}
	return fmt.Sprintf("%+6.1f", (final-init)/init*100)
}

// WriteTable2Row prints one Table 2 row, lengths in µm (DBUPerUm).
func WriteTable2Row(w io.Writer, r FlowResult) {
	fmt.Fprintf(w,
		"%-5s %6d %4.0f%% %6.0f | #dM1 %6d -> %6d (%s%%) | M1WL(um) %8.1f -> %8.1f (%s%%) | via12 %6d -> %6d (%s%%) | HPWL(um) %9.1f -> %9.1f (%s%%) | RWL(um) %9.1f -> %9.1f (%s%%) | WNS %6.3f -> %6.3f | P(mW) %7.3f -> %7.3f (%s%%) | opt %5.1fs\n",
		r.Design, r.NumInsts, r.Util*100, r.Alpha,
		r.Init.DM1, r.Final.DM1, pct(float64(r.Init.DM1), float64(r.Final.DM1)),
		Um(r.Init.M1WL), Um(r.Final.M1WL), pct(float64(r.Init.M1WL), float64(r.Final.M1WL)),
		r.Init.Via12, r.Final.Via12, pct(float64(r.Init.Via12), float64(r.Final.Via12)),
		Um(r.Init.HPWL), Um(r.Final.HPWL), pct(float64(r.Init.HPWL), float64(r.Final.HPWL)),
		Um(r.Init.RWL), Um(r.Final.RWL), pct(float64(r.Init.RWL), float64(r.Final.RWL)),
		r.Init.WNS, r.Final.WNS,
		r.Init.PowerMW, r.Final.PowerMW, pct(r.Init.PowerMW, r.Final.PowerMW),
		r.OptRuntime.Seconds(),
	)
}

// Um converts a length in DBU to µm for display: the inverse of UmToDBU.
func Um(dbu int64) float64 { return float64(dbu) / DBUPerUm }
