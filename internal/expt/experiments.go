package expt

import (
	"context"
	"fmt"
	"io"
	"time"

	"vm1place/internal/core"
	"vm1place/internal/tech"
)

// SuiteConfig sizes the experiment suite. Scale 1.0 uses the paper's
// instance counts; benches use smaller scales.
type SuiteConfig struct {
	Scale   float64
	Workers int
}

// design returns the (possibly scaled) spec for a paper design name, or an
// error wrapping ErrUnknownDesign.
func (c SuiteConfig) design(name string) (DesignSpec, error) {
	specs := PaperDesigns
	if c.Scale > 0 && c.Scale < 1 {
		specs = ScaledDesigns(c.Scale)
	}
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return DesignSpec{}, fmt.Errorf("%w: %s", ErrUnknownDesign, name)
}

// --- ExptA-1 / Figure 5: window size & perturbation scalability ---------

// Fig5Point is one sweep sample.
type Fig5Point struct {
	WindowUm float64
	LX, LY   int
	RWL      int64
	Runtime  time.Duration
}

// RunFig5 sweeps square window sizes (and optionally perturbation ranges)
// on aes/ClosedM1 with a single DistOpt pair, as in ExptA-1.
func RunFig5(ctx context.Context, cfg SuiteConfig, windowsUm []float64, perturbations [][2]int) ([]Fig5Point, error) {
	if windowsUm == nil {
		windowsUm = []float64{5, 10, 20, 40, 80}
	}
	if perturbations == nil {
		perturbations = [][2]int{{4, 1}}
	}
	spec, err := cfg.design("aes")
	if err != nil {
		return nil, err
	}
	type fig5Case struct {
		um float64
		lp [2]int
	}
	var cases []fig5Case
	for _, um := range windowsUm {
		for _, lp := range perturbations {
			cases = append(cases, fig5Case{um, lp})
		}
	}
	out := make([]Fig5Point, len(cases))
	for i, c := range cases {
		r, err := RunFlowCtx(ctx, spec, FlowConfig{
			Arch: tech.ClosedM1,
			Sequence: core.Sequence{{
				BW: UmToDBU(c.um), BH: UmToDBU(c.um), LX: c.lp[0], LY: c.lp[1],
			}},
			MaxOuterIters: 1,
			Workers:       cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		out[i] = Fig5Point{
			WindowUm: c.um, LX: c.lp[0], LY: c.lp[1],
			RWL: r.Final.RWL, Runtime: r.OptRuntime,
		}
	}
	return out, nil
}

// WriteFig5 prints the normalized RWL / runtime series of Figure 5.
func WriteFig5(w io.Writer, pts []Fig5Point) {
	if len(pts) == 0 {
		return
	}
	minRWL := pts[0].RWL
	for _, p := range pts {
		if p.RWL < minRWL {
			minRWL = p.RWL
		}
	}
	fmt.Fprintln(w, "# Figure 5: normalized RWL and runtime vs window size (aes, ClosedM1)")
	fmt.Fprintln(w, "window_um  lx  ly  norm_rwl  runtime_s")
	for _, p := range pts {
		fmt.Fprintf(w, "%9.0f  %2d  %2d  %8.4f  %9.2f\n",
			p.WindowUm, p.LX, p.LY, float64(p.RWL)/float64(minRWL), p.Runtime.Seconds())
	}
}

// --- ExptA-2 / Figure 6: α sensitivity ----------------------------------

// Fig6Point is one α sample.
type Fig6Point struct {
	Alpha float64
	RWL   int64
	DM1   int
}

// RunFig6 sweeps α on aes with the given architecture, reporting RWL and
// #dM1 after optimization + reroute (ExptA-2).
func RunFig6(ctx context.Context, cfg SuiteConfig, arch tech.Arch, alphas []float64) ([]Fig6Point, error) {
	if alphas == nil {
		alphas = []float64{0, 10, 100, 400, 800, 1200, 2000, 4000, 6000}
	}
	spec, err := cfg.design("aes")
	if err != nil {
		return nil, err
	}
	out := make([]Fig6Point, len(alphas))
	for i, a := range alphas {
		r, err := RunFlowCtx(ctx, spec, FlowConfig{
			Arch:          arch,
			Alpha:         a,
			AlphaSet:      true,
			MaxOuterIters: 2,
			Workers:       cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		out[i] = Fig6Point{Alpha: a, RWL: r.Final.RWL, DM1: r.Final.DM1}
	}
	return out, nil
}

// WriteFig6 prints the Figure 6 series.
func WriteFig6(w io.Writer, arch tech.Arch, pts []Fig6Point) {
	fmt.Fprintf(w, "# Figure 6: RWL and #dM1 vs alpha (aes, %s)\n", arch)
	fmt.Fprintln(w, "alpha  rwl_um  dm1")
	for _, p := range pts {
		fmt.Fprintf(w, "%5.0f  %9.1f  %6d\n", p.Alpha, Um(p.RWL), p.DM1)
	}
}

// --- ExptA-3 / Figure 7: optimization sequences --------------------------

// SequenceSpec is a named U sequence from §5.2, written in paper units.
type SequenceSpec struct {
	Name  string
	Steps [][3]int // (bw=bh µm, lx, ly)
}

// PaperSequences are the five example sequences of ExptA-3.
var PaperSequences = []SequenceSpec{
	{"seq1", [][3]int{{20, 4, 1}}},
	{"seq2", [][3]int{{10, 3, 1}, {10, 4, 0}, {20, 4, 0}}},
	{"seq3", [][3]int{{10, 3, 1}, {20, 3, 1}, {20, 3, 0}}},
	{"seq4", [][3]int{{10, 3, 1}, {20, 3, 0}}},
	{"seq5", [][3]int{{10, 3, 1}, {10, 3, 0}, {20, 3, 1}, {20, 3, 0}}},
}

// Fig7Point is one sequence's outcome.
type Fig7Point struct {
	Name    string
	RWL     int64
	Runtime time.Duration
}

// RunFig7 evaluates the five U sequences on aes/ClosedM1 (ExptA-3).
func RunFig7(ctx context.Context, cfg SuiteConfig, seqs []SequenceSpec) ([]Fig7Point, error) {
	if seqs == nil {
		seqs = PaperSequences
	}
	spec, err := cfg.design("aes")
	if err != nil {
		return nil, err
	}
	out := make([]Fig7Point, len(seqs))
	for i, ss := range seqs {
		var u core.Sequence
		for _, st := range ss.Steps {
			u = append(u, core.ParamSet{
				BW: UmToDBU(float64(st[0])), BH: UmToDBU(float64(st[0])),
				LX: st[1], LY: st[2],
			})
		}
		r, err := RunFlowCtx(ctx, spec, FlowConfig{
			Arch:          tech.ClosedM1,
			Sequence:      u,
			MaxOuterIters: 2,
			Workers:       cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		out[i] = Fig7Point{Name: ss.Name, RWL: r.Final.RWL, Runtime: r.OptRuntime}
	}
	return out, nil
}

// WriteFig7 prints the Figure 7 series.
func WriteFig7(w io.Writer, pts []Fig7Point) {
	fmt.Fprintln(w, "# Figure 7: RWL and runtime per optimization sequence (aes, ClosedM1)")
	fmt.Fprintln(w, "sequence  rwl_um  runtime_s")
	for _, p := range pts {
		fmt.Fprintf(w, "%-8s  %9.1f  %9.2f\n", p.Name, Um(p.RWL), p.Runtime.Seconds())
	}
}

// --- ExptB / Table 2 ------------------------------------------------------

// RunTable2 runs the full flow on every design for one architecture.
func RunTable2(ctx context.Context, cfg SuiteConfig, arch tech.Arch) ([]FlowResult, error) {
	out := make([]FlowResult, len(PaperDesigns))
	for i, d := range PaperDesigns {
		spec, err := cfg.design(d.Name)
		if err != nil {
			return nil, err
		}
		if out[i], err = RunFlowCtx(ctx, spec, FlowConfig{Arch: arch, Workers: cfg.Workers}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteTable2 prints the Table 2 block for one architecture.
func WriteTable2(w io.Writer, arch tech.Arch, rows []FlowResult) {
	fmt.Fprintf(w, "# Table 2 (%s-based designs)\n", arch)
	for _, r := range rows {
		WriteTable2Row(w, r)
	}
}

// --- Figure 8: DRVs vs utilization ---------------------------------------

// Fig8Point is one utilization sample.
type Fig8Point struct {
	Util     float64
	DRVsOrig int
	DRVsOpt  int
	DM1      int
}

// RunFig8 sweeps placement utilization on aes/ClosedM1 and reports DRVs
// before and after optimization plus the final dM1 count (the congestion
// study of ExptB-1).
func RunFig8(ctx context.Context, cfg SuiteConfig, utils []float64) ([]Fig8Point, error) {
	if utils == nil {
		utils = []float64{0.75, 0.78, 0.81, 0.82, 0.83, 0.84}
	}
	spec, err := cfg.design("aes")
	if err != nil {
		return nil, err
	}
	out := make([]Fig8Point, len(utils))
	for i, u := range utils {
		r, err := RunFlowCtx(ctx, spec, FlowConfig{Arch: tech.ClosedM1, Util: u, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		out[i] = Fig8Point{
			Util: u, DRVsOrig: r.Init.DRVs, DRVsOpt: r.Final.DRVs, DM1: r.Final.DM1,
		}
	}
	return out, nil
}

// WriteFig8 prints the Figure 8 series.
func WriteFig8(w io.Writer, pts []Fig8Point) {
	fmt.Fprintln(w, "# Figure 8: DRVs before/after optimization vs utilization (aes, ClosedM1)")
	fmt.Fprintln(w, "util_pct  drv_orig  drv_opt  dm1")
	for _, p := range pts {
		fmt.Fprintf(w, "%8.0f  %8d  %7d  %5d\n", p.Util*100, p.DRVsOrig, p.DRVsOpt, p.DM1)
	}
}

// --- Ablations -------------------------------------------------------------

// AblationResult compares two flow variants.
type AblationResult struct {
	Name            string
	BaseRWL, VarRWL int64
	BaseDM1, VarDM1 int
	BaseSec, VarSec float64
}

// RunAblationJointFlip compares the paper's sequential perturb-then-flip
// DistOpt pairs against a joint move+flip optimization (§4.2's
// observation: sequential is faster at similar quality).
func RunAblationJointFlip(ctx context.Context, cfg SuiteConfig) (AblationResult, error) {
	spec, err := cfg.design("aes")
	if err != nil {
		return AblationResult{}, err
	}
	seq := DefaultSequence()

	base, err := RunFlowCtx(ctx, spec, FlowConfig{
		Arch: tech.ClosedM1, Sequence: seq, MaxOuterIters: 2, Workers: cfg.Workers,
	})
	if err != nil {
		return AblationResult{}, err
	}

	// Joint variant: one DistOpt with both degrees of freedom per
	// iteration, the same four-stage pipeline with the joint optimizer
	// plugged into the optimize stage.
	joint, err := runFlow(ctx, spec, FlowConfig{
		Arch: tech.ClosedM1, Sequence: seq, MaxOuterIters: 2, Workers: cfg.Workers,
	}, core.VM1OptJointCtx)
	if err != nil {
		return AblationResult{}, err
	}

	return AblationResult{
		Name:    "sequential-vs-joint-flip",
		BaseRWL: base.Final.RWL, VarRWL: joint.Final.RWL,
		BaseDM1: base.Final.DM1, VarDM1: joint.Final.DM1,
		BaseSec: base.OptRuntime.Seconds(), VarSec: joint.OptRuntime.Seconds(),
	}, nil
}
