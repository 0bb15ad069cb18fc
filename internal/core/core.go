// Package core implements the paper's contribution: vertical M1
// routing-aware detailed placement by MILP (DAC'17, Debacker et al.).
//
// The optimizer perturbs a legal placement inside small windows, minimizing
// a weighted combination of HPWL and the (negated) number of inter-row pin
// alignments (ClosedM1) or pin overlaps (OpenM1) that enable direct
// vertical M1 routing. Each window is an exact MILP over single-cell-
// placement (SCP) candidate variables (Section 3 of the paper); windows
// with disjoint x/y projections are solved in parallel (Section 4,
// Figures 3-4); and a metaheuristic outer loop sweeps a sequence of window
// size / perturbation-range parameter sets until the objective converges
// (Algorithm 1).
package core

import (
	"runtime"
	"time"

	"vm1place/internal/cells"
	"vm1place/internal/geom"
	"vm1place/internal/layout"
	"vm1place/internal/netlist"
	"vm1place/internal/objective"
	"vm1place/internal/tech"
)

// Params configures the optimizer.
type Params struct {
	// Arch selects the cell architecture. When Objective is nil it also
	// selects the MILP formulation via objective.ForArch (ClosedM1
	// alignment or OpenM1 overlap); Conventional designs have nothing to
	// optimize.
	Arch tech.Arch
	// Objective, when non-nil, overrides the geometry objective: the
	// per-pair reward terms, per-net α weights and MILP rows the window
	// subproblems emit (internal/objective). nil keeps the paper
	// formulation selected by Arch. Resolve names with objective.Lookup.
	Objective objective.GeomObjective
	// Alpha weighs one alignment/overlap against HPWL DBU (the paper's α).
	Alpha float64
	// NetAlpha, when non-nil, holds per-net multipliers on Alpha (indexed
	// like Design.Nets) consumed by per-net-weighted objectives such as
	// "slackalpha" (typically sta.CriticalityBetas over sta.NetSlacks).
	// Uniform objectives ignore it. Entries <= 0 or beyond the slice
	// bounds mean 1.
	NetAlpha []float64
	// MarginDBU is the "netsep" objective's separation margin; <= 0
	// selects that objective's default (4·δ).
	MarginDBU int64
	// Beta weighs net HPWL (the paper's βn, uniform; the paper uses 1).
	Beta float64
	// NetBeta, when non-nil, holds per-net multipliers on Beta (indexed
	// like Design.Nets). This implements the paper's future-work item of
	// folding timing criticality into the objective: critical nets get
	// βn > 1 so the optimizer resists stretching them. Nets beyond the
	// slice bounds or with non-positive entries use 1.
	NetBeta []float64
	// PinDensityWeight, when positive, adds a per-candidate penalty
	// proportional to the signal-pin count already present in the
	// candidate's site columns (computed from the window snapshot). This
	// is the paper's future-work pin-density criterion: it steers cells
	// away from pin-crowded columns that throttle pin access.
	PinDensityWeight float64
	// Epsilon weighs total overlap length for OpenM1 (the paper's ε).
	Epsilon float64
	// GammaRows is the maximum dM1 span in rows (the paper's γ, OpenM1
	// Constraint (12)).
	GammaRows int
	// AlignGammaRows is the alignment window for pair eligibility in the
	// MILP and objective. The paper's ClosedM1 Constraint (4) uses one row
	// height (adjacent rows) — alignments farther apart are rarely
	// routable because intervening cells' M1 pins block the track — while
	// OpenM1 uses γ. DefaultParams sets 1 and γ respectively.
	AlignGammaRows int
	// DeltaDBU is the minimum OpenM1 overlap length (the paper's δ).
	DeltaDBU int64
	// Theta is the relative objective-improvement threshold that ends the
	// inner loop of Algorithm 1 (the paper uses 1%).
	Theta float64
	// MaxNodes and TimeLimit bound each window MILP (the CPLEX budget
	// equivalent).
	MaxNodes  int
	TimeLimit time.Duration
	// Workers is the parallel window solver count. DefaultParams sets it
	// to the machine's available parallelism (the paper's experiments use
	// 8 threads on an 8-core host — the same policy, not a magic count).
	Workers int
	// SolverWorkers is the speculative branch-and-bound worker count
	// inside each window MILP (milp.Params.Workers): at >= 2 node
	// relaxations are solved in parallel with canonically-ordered commits,
	// so any such count yields identical placements. <= 1 keeps the
	// sequential warm-started solver. Orthogonal to Workers, which
	// parallelizes across windows; the default of 0 leaves all parallelism
	// at the window level.
	SolverWorkers int
	// Shards is ignored. It selected a spatially sharded inner loop that
	// the dataflow window scheduler replaced (DESIGN.md §4f); that
	// scheduler already bounds live window storage by the worker count.
	// The field stays so callers that set it keep compiling.
	Shards int
	// MaxMILPCells is the largest window (movable cells) solved exactly;
	// larger windows use the greedy coordinate-descent fallback (0: 100).
	MaxMILPCells int
	// MaxOuterIters caps Algorithm 1 inner iterations per parameter set
	// (0: until convergence). ExptA-1 uses 1.
	MaxOuterIters int
	// Guided enables proxy-guided window selection and budgeting (requires
	// Proxy): before each DistOpt pass every window and diagonal family is
	// scored, families run hottest-first, near-empty families (scoring
	// below GuidedColdFrac of the hottest) are skipped outright, and each
	// window's MILP TimeLimit is scaled by its own score — cold windows
	// drop toward GuidedShrink x the uniform budget, hot windows rise
	// toward GuidedBoostCap x. The schedule is a pure function of the
	// placement — (score, familyID) tie-break, single-threaded scoring —
	// so guided runs stay bit-deterministic across Workers settings.
	Guided bool
	// Proxy is the QoR estimator behind guided selection, typically
	// *proxy.Estimator. It is attached to the run's ObjTracker so every
	// committed move batch keeps its congestion model current. nil
	// disables guided selection even when Guided is set.
	Proxy WindowScorer
	// GuidedColdFrac is the family skip threshold as a fraction of the
	// hottest family's score (0: 0.01). Families at or above the threshold
	// run. The default is deliberately tight — it drops the near-empty
	// boundary-sliver families a shifted grid produces, not merely
	// uncongested ones: window objective gains are only weakly predictable
	// from congestion, so skipping real windows trades QoR away.
	GuidedColdFrac float64
	// GuidedShrink is the budget floor multiplier for the coldest windows
	// (0: 0.25). A cold window still solves, but its MILP wall budget is
	// GuidedShrink x the uniform TimeLimit — hard-but-cold windows stop
	// chasing tail improvements the router cannot reward. Untimed runs
	// (TimeLimit <= 0) are unaffected.
	GuidedShrink float64
	// GuidedBoostCap caps the per-window TimeLimit multiplier for the
	// hottest windows (0: 1.5).
	GuidedBoostCap float64
}

// guidedColdFrac returns the effective cold-skip threshold fraction.
func (prm Params) guidedColdFrac() float64 {
	if prm.GuidedColdFrac > 0 {
		return prm.GuidedColdFrac
	}
	return 0.01
}

// guidedShrink returns the effective cold-window budget floor.
func (prm Params) guidedShrink() float64 {
	if prm.GuidedShrink > 0 {
		return prm.GuidedShrink
	}
	return 0.25
}

// guidedBoostCap returns the effective budget-boost cap.
func (prm Params) guidedBoostCap() float64 {
	if prm.GuidedBoostCap >= 1 {
		return prm.GuidedBoostCap
	}
	return 1.5
}

// guided reports whether guided family selection is active.
func (prm Params) guided() bool { return prm.Guided && prm.Proxy != nil }

// DefaultParams returns paper-faithful defaults for an architecture.
func DefaultParams(t *tech.Tech, arch tech.Arch) Params {
	alpha := 1200.0
	alignGamma := 1
	if arch == tech.OpenM1 {
		alpha = 1000.0
		alignGamma = t.Gamma
	}
	return Params{
		Arch:           arch,
		Alpha:          alpha,
		Beta:           1.0,
		Epsilon:        0.02,
		GammaRows:      t.Gamma,
		AlignGammaRows: alignGamma,
		DeltaDBU:       t.Delta,
		Theta:          0.01,
		MaxNodes:       200,
		// 400ms per window MILP: with warm-started dual re-solves the
		// branch-and-bound explores more nodes in 400ms than the seed
		// solver did in 800ms, and the deadline now interrupts long root
		// relaxations too, so hard windows pin their family at exactly
		// this budget. Measured quality over 3 full passes is within 0.2%
		// of the 800ms setting at roughly half the wall time.
		TimeLimit:    400 * time.Millisecond,
		Workers:      runtime.GOMAXPROCS(0),
		MaxMILPCells: 100,
	}
}

// ParamSet is one entry of the metaheuristic sequence U: window size (DBU)
// and perturbation range (sites/rows). The paper writes these as
// (bw=bh in µm, lx, ly); the experiment harness converts µm to DBU.
type ParamSet struct {
	BW, BH int64 // window width/height in DBU
	LX     int   // max |Δx| in sites
	LY     int   // max |Δy| in rows
}

// Sequence is the queue U of Algorithm 1.
type Sequence []ParamSet

// Objective is the paper's optimization objective evaluated on a placement:
// Σ βn·HPWL(n) − α·#alignments (− ε·Σ overlap surplus for OpenM1).
type Objective struct {
	HPWL int64
	// Alignments counts pin pairs eligible for direct vertical M1 routing
	// (aligned for ClosedM1, overlapping >= δ for OpenM1, within γ rows).
	Alignments int
	// OverlapSum is Σ max(0, overlap − δ) over counted pairs (OpenM1).
	OverlapSum int64
	// Value is the scalarized objective.
	Value float64
}

// pinRef caches the geometry of one net terminal used in pair tests.
type pinRef struct {
	inst   int
	alignX int64         // absolute ClosedM1 track x
	ext    geom.Interval // absolute OpenM1 x extent
	row    int
	y      int64 // absolute pin y center
}

// terminalRef builds the cached geometry for an instance pin.
func terminalRef(p *layout.Placement, c netlist.Conn) pinRef {
	inst := &p.Design.Insts[c.Inst]
	pin := &inst.Master.Pins[c.Pin]
	x := p.InstX(c.Inst)
	flip := p.Flip[c.Inst]
	ext := cells.XExtent(inst.Master, p.Tech, pin, flip)
	return pinRef{
		inst:   c.Inst,
		alignX: x + cells.AlignX(inst.Master, p.Tech, pin, flip),
		ext:    geom.Interval{Lo: x + ext.Lo, Hi: x + ext.Hi},
		row:    p.Row[c.Inst],
		y:      p.InstY(c.Inst) + cells.PinY(inst.Master, p.Tech, pin),
	}
}

// appendNetTerminals appends the signal-pin terminals of a net to buf and
// returns it (ports are not M1-accessible pins and never participate in
// pairs). Passing a reused buffer avoids the per-net allocation that
// dominated CalculateObj's constant factor.
func appendNetTerminals(buf []pinRef, p *layout.Placement, ni int) []pinRef {
	p.Design.Nets[ni].ForEachConn(func(c netlist.Conn) {
		buf = append(buf, terminalRef(p, c))
	})
	return buf
}

// netTerminals is appendNetTerminals with a fresh buffer.
func netTerminals(p *layout.Placement, ni int) []pinRef {
	return appendNetTerminals(make([]pinRef, 0, p.Design.Nets[ni].NumConns()), p, ni)
}

// pinGeom converts a cached terminal to the objective package's view of
// its x/y geometry.
func pinGeom(r pinRef) objective.PinGeom {
	return objective.PinGeom{
		Row:     r.row,
		AlignX:  r.alignX,
		ExtLo:   r.ext.Lo,
		ExtHi:   r.ext.Hi,
		CenterX: (r.ext.Lo + r.ext.Hi) / 2,
	}
}

// pairStats counts the dM1-eligible terminal pairs of one net and their
// overlap surplus (terms on the same instance never pair).
func pairStats(prm Params, terms []pinRef) (align int, over int64) {
	o := prm.obj()
	w := prm.weights()
	gamma := prm.alignGamma()
	for i := 0; i < len(terms); i++ {
		for j := i + 1; j < len(terms); j++ {
			if terms[i].inst == terms[j].inst {
				continue
			}
			if ok, ov := pairEnablesDM1(o, w, gamma, terms[i], terms[j]); ok {
				align++
				over += ov
			}
		}
	}
	return align, over
}

// pairEnablesDM1 reports whether two terminals enable a direct vertical M1
// route (or, generally, realize the objective's pair predicate) under the
// current placement, plus the overlap surplus. The row-window gate is
// shared by every objective; the x-geometry test is the objective's.
func pairEnablesDM1(o objective.GeomObjective, w objective.Weights, gamma int, a, b pinRef) (bool, int64) {
	dr := a.row - b.row
	if dr < 0 {
		dr = -dr
	}
	if dr > gamma {
		return false, 0
	}
	return o.PairEval(w, pinGeom(a), pinGeom(b))
}

// betaOf returns the effective βn for a net.
func (prm Params) betaOf(ni int) float64 {
	b := prm.Beta
	if ni < len(prm.NetBeta) && prm.NetBeta[ni] > 0 {
		b *= prm.NetBeta[ni]
	}
	return b
}

// alignGamma returns the pair-eligibility row window.
func (prm Params) alignGamma() int {
	if prm.AlignGammaRows > 0 {
		return prm.AlignGammaRows
	}
	return prm.obj().AlignGammaDefault(prm.GammaRows)
}

// obj resolves the effective geometry objective: the explicit Objective
// when set, else the paper formulation for the architecture.
func (prm Params) obj() objective.GeomObjective {
	if prm.Objective != nil {
		return prm.Objective
	}
	return objective.ForArch(prm.Arch)
}

// weights packs the objective-facing scalar knobs.
func (prm Params) weights() objective.Weights {
	return objective.Weights{
		Alpha:     prm.Alpha,
		Epsilon:   prm.Epsilon,
		DeltaDBU:  prm.DeltaDBU,
		MarginDBU: prm.MarginDBU,
		NetAlpha:  prm.NetAlpha,
	}
}

// CalculateObj evaluates the global objective of a placement (Algorithm 2's
// CalculateObj).
func CalculateObj(p *layout.Placement, prm Params) Objective {
	var obj Objective
	o := prm.obj()
	w := prm.weights()
	obj.HPWL = p.TotalHPWL()
	var weighted, reward float64
	var buf []pinRef
	for ni := range p.Design.Nets {
		if p.Design.Nets[ni].IsClock {
			continue
		}
		weighted += prm.betaOf(ni) * float64(p.NetHPWL(ni))
		buf = appendNetTerminals(buf[:0], p, ni)
		align, over := pairStats(prm, buf)
		obj.Alignments += align
		obj.OverlapSum += over
		reward += o.PairAlpha(w, ni) * float64(align)
	}
	obj.Value = o.Value(w, weighted, obj.Alignments, obj.OverlapSum, reward)
	return obj
}
