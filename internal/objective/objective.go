// Package objective defines the pluggable geometry-objective interface of
// vm1place: the per-pair reward a placement earns when two pins of a net
// become directly routable (or otherwise geometrically "good"), together
// with the MILP variable/constraint rows that linearize the reward inside
// a window subproblem (internal/core's wmilp).
//
// The paper's two formulations — ClosedM1 track alignment and OpenM1 pin
// overlap — are the first two implementations; the optimizer itself
// (candidate enumeration, occupancy rows, HPWL bounds, incremental
// tracking, sharding) is objective-agnostic. New placement workloads plug
// in by implementing GeomObjective and adding a named value to the sorted
// objectives list in registry.go:
//
//   - "netsep": net-separation/margin maximization for PCB-style inputs
//     (Cheng et al., see PAPERS.md) — pairs are rewarded for keeping their
//     pin centers within a margin, with the surplus margin maximized;
//   - "slackalpha": timing-driven weighting where per-net STA slack scales
//     each net's α, so critical nets buy alignment first (GOALPlace-style
//     end-metric weighting).
//
// EmitPair's rows need only force a realized pair when the pair's reward
// variable d is 1. The window assembly adds, for every objective alike,
// a support row d ≤ Σ λ per movable pin over the candidates that realize
// the pair with some candidate of the other pin (PairEval under the row
// gate), and it builds no pair that no candidate combination realizes.
// Those rows tighten the relaxation of any big-G linearization, so an
// implementation need not emit them.
//
// # Determinism contract
//
// Implementations MUST be pure functions of their inputs: no clocks, no
// global randomness, no hidden state (the package is covered by vm1lint's
// maporder/clockrand analyzers). EmitPair must emit its AddVar/AddRow
// calls in a fixed order — row order steers simplex pivoting, and the
// repo's golden-flow tests pin single-worker runs bit-for-bit. PairEval
// must be exact integer geometry so core.ObjTracker's incremental caches
// reproduce a full rescan; Value must reduce its float terms in a fixed
// order for the same reason.
package objective

import (
	"vm1place/internal/lp"
	"vm1place/internal/milp"
	"vm1place/internal/tech"
)

// Weights bundles the scalarization constants an objective consumes. It
// is a cheap value view assembled from core.Params on the fly; the slice
// field aliases the caller's storage and is never mutated.
type Weights struct {
	// Alpha is the reward per realized pair (the paper's α).
	Alpha float64
	// Epsilon weighs the pair's surplus quantity — overlap length beyond δ
	// for "openm1", separation margin for "netsep" (the paper's ε).
	Epsilon float64
	// DeltaDBU is the minimum OpenM1 overlap length (the paper's δ).
	DeltaDBU int64
	// MarginDBU is the "netsep" separation margin; <= 0 selects the
	// objective's default (4·δ).
	MarginDBU int64
	// NetAlpha holds optional per-net α multipliers (indexed like
	// Design.Nets); "slackalpha" consumes it, uniform objectives ignore
	// it. Entries <= 0 or beyond the slice bounds mean 1.
	NetAlpha []float64
}

// PinGeom is the scalar geometry of one pin under one concrete placement
// choice — the view PairEval scores.
type PinGeom struct {
	// Row is the pin's placement row (the caller gates |Δrow| <= γ before
	// calling PairEval, so implementations need not re-check it).
	Row int
	// AlignX is the absolute ClosedM1 track x of the pin.
	AlignX int64
	// ExtLo/ExtHi are the absolute OpenM1 x extent.
	ExtLo, ExtHi int64
	// CenterX is the pin's x center ((ExtLo+ExtHi)/2 for library pins).
	CenterX int64
}

// PinView is the per-candidate geometry of one window pin: index k holds
// the pin's geometry under the owning cell's k-th placement candidate.
// Fixed pins have single-element arrays and a nil Lambda.
type PinView struct {
	// Lambda holds the MILP λ variable ids of the owning cell's
	// candidates, or nil for a fixed pin.
	Lambda []int

	CenterX, CenterY []int64
	AlignX           []int64
	ExtLo, ExtHi     []int64
	RowOf            []int
}

// At returns the scalar geometry of candidate k (0 for fixed pins).
func (p PinView) At(k int) PinGeom {
	return PinGeom{
		Row:     p.RowOf[k],
		AlignX:  p.AlignX[k],
		ExtLo:   p.ExtLo[k],
		ExtHi:   p.ExtHi[k],
		CenterX: p.CenterX[k],
	}
}

// Emit is the window-MILP assembly context handed to EmitPair.
type Emit struct {
	M  *lp.Model
	MM *milp.Model
	// GammaH is the pair row window in DBU (its rows · RowHeight), for
	// the |Δy| gating rows.
	GammaH float64
}

// GeomObjective is one pluggable geometry objective: the per-pair reward
// terms, the per-net α weights, and the MILP rows that linearize them.
// Implementations must be stateless values safe for concurrent use.
type GeomObjective interface {
	// Name is the registry key ("closedm1", "openm1", ...).
	Name() string
	// Arch is the cell architecture whose pin geometry the objective
	// evaluates — it selects the library pin synthesis and the router's
	// capacity model for flows driven by an objective name.
	Arch() tech.Arch
	// PairAlpha is the effective α of one pair on net ni. Uniform
	// objectives return w.Alpha exactly (bit-identical scalarization).
	PairAlpha(w Weights, ni int) float64
	// PairEval scores one pair under concrete geometry: whether the pair
	// is realized (counted as an "alignment") and its integer surplus
	// (overlap beyond δ, margin below MarginDBU, ... — weighted by ε).
	// The caller has already gated |Δrow| to the pair row window.
	PairEval(w Weights, a, b PinGeom) (bool, int64)
	// PairFeasible conservatively tests whether ANY candidate combination
	// of the two pins can realize the pair (row distance is pre-gated by
	// the caller). Used to prune pair variables from the window MILP.
	PairFeasible(w Weights, a, b PinView) bool
	// EmitPair appends the pair's constraint rows (and any auxiliary
	// variables) to the window MILP. d is the pair's binary reward
	// variable, already added with objective coefficient -PairAlpha and
	// marked integer by the caller. It need not emit support rows (see
	// the package comment). tb is a reusable term buffer; the
	// (possibly regrown) buffer is returned so the caller's workspace
	// keeps it. Emission order must be deterministic — see the package
	// comment.
	EmitPair(e Emit, w Weights, d int, p, q PinView, tb []lp.Term) []lp.Term
	// Value scalarizes the accumulated totals: weighted is Σ HPWL(n)
	// (the paper's Σ βn·HPWL(n) at its uniform βn = 1, net order), align/over the integer pair totals, and reward the
	// net-ordered float sum Σ PairAlpha(n)·align(n) for objectives whose
	// α varies per net. Uniform objectives must compute exactly
	// weighted − α·align − ε·over to stay bit-identical with the paper
	// flows.
	Value(w Weights, weighted float64, align int, over int64, reward float64) float64
}

// AppendPin appends the λ-terms of a pin coordinate (scaled by sign) to
// dst and returns the pin's constant contribution (fixed pins contribute
// no terms; the caller folds the constant into the row's RHS). vals must
// be one of the PinView's per-candidate arrays.
func AppendPin(dst []lp.Term, p PinView, vals []int64, sign float64) ([]lp.Term, float64) {
	if p.Lambda == nil {
		return dst, float64(vals[0])
	}
	for k, v := range vals {
		dst = append(dst, lp.Term{Var: p.Lambda[k], Coef: sign * float64(v)})
	}
	return dst, 0
}

// uniformValue is the paper's scalarization Σβn·wn − α·#pairs − ε·Σsurplus,
// with the exact float reduction order the pre-refactor code used (the
// golden-flow tests pin it bit-for-bit).
func uniformValue(w Weights, weighted float64, align int, over int64) float64 {
	return weighted - w.Alpha*float64(align) - w.Epsilon*float64(over)
}

func minMax64(v []int64) (int64, int64) {
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
