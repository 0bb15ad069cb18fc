package objective

import (
	"vm1place/internal/lp"
	"vm1place/internal/tech"
)

// netSep is the net-separation/margin-maximization objective for
// PCB-style inputs (Cheng et al., "Net Separation-Oriented Printed
// Circuit Board Placement via Margin Maximization" — see PAPERS.md): a
// pair is realized when its pin centers sit within MarginDBU of each
// other horizontally (short, directly escapable connections), and the
// surplus margin MarginDBU − |Δx| is maximized at weight ε — the same
// margin-as-objective idea, mapped onto the window MILP's pair machinery.
//
// The objective runs on the OpenM1 pin geometry (wide horizontal pads,
// the closest library analogue of PCB pads) and the γ-row eligibility
// window.
type netSep struct{}

var netSepObj GeomObjective = netSep{}

func (netSep) Name() string    { return "netsep" }
func (netSep) Arch() tech.Arch { return tech.OpenM1 }

func (netSep) PairAlpha(w Weights, ni int) float64 { return w.Alpha }

// marginOf is the effective separation margin: MarginDBU when set, else
// 4·δ (200 DBU = 2 sites at the default technology).
func marginOf(w Weights) int64 {
	if w.MarginDBU > 0 {
		return w.MarginDBU
	}
	return 4 * w.DeltaDBU
}

func (netSep) PairEval(w Weights, a, b PinGeom) (bool, int64) {
	d := a.CenterX - b.CenterX
	if d < 0 {
		d = -d
	}
	if margin := marginOf(w); d <= margin {
		return true, margin - d
	}
	return false, 0
}

// PairFeasible: the minimum achievable |Δx| across candidates must reach
// the margin. The minimum distance of the two center ranges is 0 when
// they intersect, else the gap between them.
func (netSep) PairFeasible(w Weights, a, b PinView) bool {
	loA, hiA := minMax64(a.CenterX)
	loB, hiB := minMax64(b.CenterX)
	var dist int64
	if loA > hiB {
		dist = loA - hiB
	} else if loB > hiA {
		dist = loB - hiA
	}
	return dist <= marginOf(w)
}

// EmitPair linearizes the margin reward. With Δ = cx_p − cx_q (linear in
// λ), t ≥ |Δ| and s the rewarded surplus:
//
//	Δ ± gx·d within ±(margin + gx)   — d=1 forces |Δ| <= margin
//	|Δy| <= γH + gy(1−d)             — row gate, as ClosedM1
//	t ≥ Δ, t ≥ −Δ                    — t upper-bounds nothing: s pushes it to |Δ|
//	s + t <= margin + gx(1−d)        — d=1: s <= margin − |Δ|
//	s <= margin·d                    — d=0: no surplus
//
// where gx is the tightest big-G from the candidate center ranges.
func (netSep) EmitPair(e Emit, w Weights, d int, p, q PinView, tb []lp.Term) []lp.Term {
	m := e.M
	margin := float64(marginOf(w))
	loP, hiP := minMax64(p.CenterX)
	loQ, hiQ := minMax64(q.CenterX)
	gx := float64(max64(hiP-loQ, hiQ-loP)) + 1
	loPy, hiPy := minMax64(p.CenterY)
	loQy, hiQy := minMax64(q.CenterY)
	gy := float64(max64(hiPy-loQy, hiQy-loPy)) + 1
	t := m.AddVar(0, gx, 0, "t")
	s := m.AddVar(0, margin, -w.Epsilon, "s")
	// |Δ| <= margin when d=1.
	var cp, cq float64
	tb = tb[:0]
	tb, cp = AppendPin(tb, p, p.CenterX, 1)
	tb, cq = AppendPin(tb, q, q.CenterX, -1)
	n := len(tb)
	tb = append(tb, lp.Term{Var: d, Coef: gx})
	m.AddRow(lp.LE, gx+margin-cp+cq, tb...)
	tb = tb[:n]
	tb = append(tb, lp.Term{Var: d, Coef: -gx})
	m.AddRow(lp.GE, -gx-margin-cp+cq, tb...)
	// t >= |Δ|.
	tb = tb[:n]
	tb = append(tb, lp.Term{Var: t, Coef: -1})
	m.AddRow(lp.LE, -cp+cq, tb...)
	tb = tb[:0]
	tb, cp = AppendPin(tb, p, p.CenterX, -1)
	tb, cq = AppendPin(tb, q, q.CenterX, 1)
	tb = append(tb, lp.Term{Var: t, Coef: -1})
	m.AddRow(lp.LE, cp-cq, tb...)
	// Row gate: |Δy| <= γH + gy(1-d).
	var cpy, cqy float64
	tb = tb[:0]
	tb, cpy = AppendPin(tb, p, p.CenterY, 1)
	tb, cqy = AppendPin(tb, q, q.CenterY, -1)
	n = len(tb)
	tb = append(tb, lp.Term{Var: d, Coef: gy})
	m.AddRow(lp.LE, gy+e.GammaH-cpy+cqy, tb...)
	tb = tb[:n]
	tb = append(tb, lp.Term{Var: d, Coef: -gy})
	m.AddRow(lp.GE, -gy-e.GammaH-cpy+cqy, tb...)
	// Surplus linearization.
	m.AddRow(lp.LE, gx+margin,
		lp.Term{Var: s, Coef: 1}, lp.Term{Var: t, Coef: 1}, lp.Term{Var: d, Coef: gx})
	m.AddRow(lp.LE, 0, lp.Term{Var: s, Coef: 1}, lp.Term{Var: d, Coef: -margin})
	return tb
}

func (netSep) Value(w Weights, weighted float64, align int, over int64, reward float64) float64 {
	return uniformValue(w, weighted, align, over)
}
