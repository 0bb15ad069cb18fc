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
	"vm1place/internal/layout"
	"vm1place/internal/netlist"
	"vm1place/internal/objective"
	"vm1place/internal/tech"
)

// Epsilon weighs a pair's surplus against HPWL DBU: total overlap length
// beyond δ for OpenM1 (the paper's ε), separation margin for "netsep".
const Epsilon = 0.02

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
	// MaxNodes and TimeLimit bound each window MILP (the CPLEX budget
	// equivalent).
	MaxNodes  int
	TimeLimit time.Duration
	// Workers is the parallel window solver count. DefaultParams sets it
	// to the machine's available parallelism (the paper's experiments use
	// 8 threads on an 8-core host — the same policy, not a magic count).
	Workers int
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
}

// DefaultParams returns paper-faithful defaults for an architecture.
func DefaultParams(t *tech.Tech, arch tech.Arch) Params {
	alpha := 1200.0
	if arch == tech.OpenM1 {
		alpha = 1000.0
	}
	return Params{
		Arch:     arch,
		Alpha:    alpha,
		MaxNodes: 200,
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

// pinGeomAt is the geometry of connection c's pin with its instance at
// site/row and orientation flip: the objective package's x/row view plus
// the pin's absolute y center. Net terminals read it at the placed
// location, window candidates at each candidate location.
func pinGeomAt(p *layout.Placement, c netlist.Conn, site, row int, flip bool) (objective.PinGeom, int64) {
	t := p.Tech
	m := p.Design.Insts[c.Inst].Master
	pin := &m.Pins[c.Pin]
	x := t.SiteX(site)
	ext := cells.XExtent(m, t, pin, flip)
	lo, hi := x+ext.Lo, x+ext.Hi
	return objective.PinGeom{
		Row:     row,
		AlignX:  x + cells.AlignX(m, t, pin, flip),
		ExtLo:   lo,
		ExtHi:   hi,
		CenterX: (lo + hi) / 2,
	}, t.RowY(row) + cells.PinY(m, t, pin)
}

// pairRule is the pair predicate of one Params on one technology: the
// geometry objective, its weights and its pair row window, resolved once
// per rescan, tracker and window so the three agree on what a pair is.
type pairRule struct {
	obj  objective.GeomObjective
	w    objective.Weights
	rows int
}

// newPairRule resolves prm's objective (the explicit Objective when set,
// else the paper formulation for the architecture) with δ from t.
func newPairRule(prm Params, t *tech.Tech) pairRule {
	o := prm.Objective
	if o == nil {
		o = objective.ForArch(prm.Arch)
	}
	return pairRule{
		obj: o,
		w: objective.Weights{
			Alpha:     prm.Alpha,
			Epsilon:   Epsilon,
			DeltaDBU:  t.Delta,
			MarginDBU: prm.MarginDBU,
			NetAlpha:  prm.NetAlpha,
		},
		rows: pairRows(o, t),
	}
}

// eval reports whether two pins realize a pair, plus its surplus: the
// |Δrow| gate shared by every objective, then the objective's x test.
func (r *pairRule) eval(a, b objective.PinGeom) (bool, int64) {
	if max(a.Row-b.Row, b.Row-a.Row) > r.rows {
		return false, 0
	}
	return r.obj.PairEval(r.w, a, b)
}

// feasible conservatively reports whether any candidate combination of
// two window pins can realize a pair: their candidate rows must come
// within the row window, and the objective's x test must pass.
func (r *pairRule) feasible(a, b objective.PinView) bool {
	aLo, aHi := minMaxInt(a.RowOf)
	bLo, bHi := minMaxInt(b.RowOf)
	if max(aLo-bHi, bLo-aHi) > r.rows {
		return false
	}
	return r.obj.PairFeasible(r.w, a, b)
}

// netPin is one net terminal under the current placement.
type netPin struct {
	inst int
	g    objective.PinGeom
}

// netStats scores net ni under the current placement: its realized pairs
// among the signal-pin terminals (ports are not M1 pins, and two pins of
// one instance never pair), their surplus and their α-weighted reward.
// *buf is reused terminal scratch, so a scan allocates once, not per net.
func (r *pairRule) netStats(p *layout.Placement, ni int, buf *[]netPin) (align int, over int64, reward float64) {
	terms := (*buf)[:0]
	p.Design.Nets[ni].ForEachConn(func(c netlist.Conn) {
		g, _ := pinGeomAt(p, c, p.SiteX[c.Inst], p.Row[c.Inst], p.Flip[c.Inst])
		terms = append(terms, netPin{inst: c.Inst, g: g})
	})
	*buf = terms
	for i := range terms {
		for j := i + 1; j < len(terms); j++ {
			if terms[i].inst == terms[j].inst {
				continue
			}
			if ok, ov := r.eval(terms[i].g, terms[j].g); ok {
				align++
				over += ov
			}
		}
	}
	return align, over, r.obj.PairAlpha(r.w, ni) * float64(align)
}

// pairRows is the row window within which two pins of objective o can
// pair: one row for ClosedM1 geometry (the paper's Constraint (4);
// alignments farther apart are rarely routable because intervening
// cells' M1 pins block the track), and γ rows otherwise (OpenM1
// Constraint (12)).
func pairRows(o objective.GeomObjective, t *tech.Tech) int {
	if o.Arch() == tech.ClosedM1 {
		return 1
	}
	return t.Gamma
}

// CalculateObj evaluates the global objective of a placement (Algorithm 2's
// CalculateObj).
func CalculateObj(p *layout.Placement, prm Params) Objective {
	var obj Objective
	r := newPairRule(prm, p.Tech)
	obj.HPWL = p.TotalHPWL()
	var weighted, reward float64
	var buf []netPin
	for ni := range p.Design.Nets {
		if p.Design.Nets[ni].IsClock {
			continue
		}
		weighted += float64(p.NetHPWL(ni))
		align, over, rw := r.netStats(p, ni, &buf)
		obj.Alignments += align
		obj.OverlapSum += over
		reward += rw
	}
	obj.Value = r.obj.Value(r.w, weighted, obj.Alignments, obj.OverlapSum, reward)
	return obj
}
