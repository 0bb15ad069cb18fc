package expt

import (
	"context"
	"fmt"
	"io"

	"vm1place/internal/tech"
)

// This file is the objective sweep (exptables -objsweep): the three
// workloads shipped on top of the pluggable geometry-objective interface
// (internal/objective), each run end-to-end through the same four-stage
// flow as the paper experiments.
//
//   - netsep: net-separation/margin maximization for PCB-style inputs,
//     swept over the separation margin;
//   - slackalpha: timing-driven per-net α weighting, swept over the
//     criticality weight (0 = the uniform ClosedM1 baseline);
//   - tracks: the paper ClosedM1 objective swept over cell architectures
//     with different track counts (6T / 7.5T / 9T row heights), showing
//     how dM1 gains vary with track count.

// TrackVariant names one row-height variant of the technology.
type TrackVariant struct {
	Label string
	Tech  func() *tech.Tech
}

// TrackVariants are the swept cell architectures: the default 7.5-track
// row plus the compressed 6-track and relaxed 9-track variants
// (internal/cells rescales the pin track template to each row height).
func TrackVariants() []TrackVariant {
	return []TrackVariant{
		{Label: "6T", Tech: tech.Default6Track},
		{Label: "7.5T", Tech: tech.Default},
		{Label: "9T", Tech: tech.Default9Track},
	}
}

// ObjSweepPoint is one flow point of the objective sweep.
type ObjSweepPoint struct {
	Workload  string // "netsep" | "slackalpha" | "tracks"
	Label     string // point label within the workload's sweep axis
	Objective string // registered objective name the flow ran
	Res       FlowResult
}

// objSweepCase is one pre-expanded sweep point.
type objSweepCase struct {
	workload, label string
	cfg             FlowConfig
}

// objSweepCases expands the three workload sweeps. base carries the
// shared knobs (workers, iteration caps, determinism overrides).
func objSweepCases(base FlowConfig) []objSweepCase {
	var cases []objSweepCase
	// (a) netsep over separation margins (DBU; 0 = the objective's 4·δ
	// default of 200).
	for _, margin := range []int64{100, 200, 400} {
		cfg := base
		cfg.Objective = "netsep"
		cfg.MarginDBU = margin
		cases = append(cases, objSweepCase{
			workload: "netsep",
			label:    fmt.Sprintf("margin=%d", margin),
			cfg:      cfg,
		})
	}
	// (b) slackalpha over criticality weights. Weight 0 keeps uniform α —
	// the ClosedM1 baseline the weighted runs are read against.
	for _, weight := range []float64{0, 1, 4} {
		cfg := base
		if weight > 0 {
			cfg.Objective = "slackalpha"
			cfg.SlackAlphaWeight = weight
		} else {
			cfg.Objective = "closedm1"
		}
		cases = append(cases, objSweepCase{
			workload: "slackalpha",
			label:    fmt.Sprintf("weight=%g", weight),
			cfg:      cfg,
		})
	}
	// (c) track-count sweep of the ClosedM1 objective.
	for _, tv := range TrackVariants() {
		cfg := base
		cfg.Objective = "closedm1"
		cfg.Tech = tv.Tech()
		cases = append(cases, objSweepCase{
			workload: "tracks",
			label:    tv.Label,
			cfg:      cfg,
		})
	}
	return cases
}

// RunObjSweep runs the three objective workloads on the m0 design and
// returns one point per sweep sample, in deterministic case order.
func RunObjSweep(ctx context.Context, cfg SuiteConfig) ([]ObjSweepPoint, error) {
	spec, err := cfg.design("m0")
	if err != nil {
		return nil, err
	}
	base := FlowConfig{MaxOuterIters: 2, Workers: cfg.Workers}
	cases := objSweepCases(base)
	out := make([]ObjSweepPoint, len(cases))
	for i, c := range cases {
		res, err := RunFlowCtx(ctx, spec, c.cfg)
		if err != nil {
			return nil, fmt.Errorf("expt: objsweep %s/%s: %w", c.workload, c.label, err)
		}
		out[i] = ObjSweepPoint{
			Workload:  c.workload,
			Label:     c.label,
			Objective: c.cfg.Objective,
			Res:       res,
		}
	}
	return out, nil
}

// WriteObjSweep prints the objective sweep series, one section per
// workload.
func WriteObjSweep(w io.Writer, pts []ObjSweepPoint) {
	fmt.Fprintln(w, "# Objective sweep: pluggable geometry workloads (m0)")
	last := ""
	for _, p := range pts {
		if p.Workload != last {
			last = p.Workload
			fmt.Fprintf(w, "## workload %s\n", p.Workload)
			fmt.Fprintln(w, "point            objective   insts  dm1_init  dm1_fin  hpwl_um_init  hpwl_um_fin  rwl_um_init  rwl_um_fin  obj_fin")
		}
		fmt.Fprintf(w, "%-16s %-10s %6d  %8d  %7d  %12.1f  %11.1f  %11.1f  %10.1f  %10.1f\n",
			p.Label, p.Objective, p.Res.NumInsts,
			p.Res.Init.DM1, p.Res.Final.DM1,
			Um(p.Res.Init.HPWL), Um(p.Res.Final.HPWL),
			Um(p.Res.Init.RWL), Um(p.Res.Final.RWL),
			p.Res.OptFinal.Value)
	}
}
