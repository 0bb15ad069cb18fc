package objective

import (
	"vm1place/internal/lp"
	"vm1place/internal/tech"
)

// closedM1 is the paper's ClosedM1 formulation: a pair is realized when
// the two pins' vertical M1 tracks coincide exactly (Constraint (4)),
// within one row by default. The MILP rows are ported verbatim from the
// pre-refactor wmilp assembly — emission order and big-G arithmetic are
// bit-identical, which the golden-flow tests pin.
type closedM1 struct{}

var closedM1Obj GeomObjective = closedM1{}

func (closedM1) Name() string    { return "closedm1" }
func (closedM1) Arch() tech.Arch { return tech.ClosedM1 }

func (closedM1) PairAlpha(w Weights, ni int) float64 { return w.Alpha }

func (closedM1) PairEval(w Weights, a, b PinGeom) (bool, int64) {
	return a.AlignX == b.AlignX, 0
}

// PairFeasible: the achievable alignX sets must intersect as ranges.
func (closedM1) PairFeasible(w Weights, a, b PinView) bool {
	loA, hiA := minMax64(a.AlignX)
	loB, hiB := minMax64(b.AlignX)
	return loA <= hiB && loB <= hiA
}

// EmitPair emits Constraint (4): d=1 forces equal x and |Δy| <= γH. Each
// big-G constant is the smallest valid bound computed from the pair's
// candidate geometry, which keeps the LP relaxation tight.
func (closedM1) EmitPair(e Emit, w Weights, d int, p, q PinView, tb []lp.Term) []lp.Term {
	m := e.M
	loP, hiP := minMax64(p.AlignX)
	loQ, hiQ := minMax64(q.AlignX)
	gx := float64(max64(hiP-loQ, hiQ-loP)) + 1
	loPy, hiPy := minMax64(p.CenterY)
	loQy, hiQy := minMax64(q.CenterY)
	gy := float64(max64(hiPy-loQy, hiQy-loPy)) + 1
	var cp, cq float64
	tb = tb[:0]
	tb, cp = AppendPin(tb, p, p.AlignX, 1)
	tb, cq = AppendPin(tb, q, q.AlignX, -1)
	n := len(tb)
	tb = append(tb, lp.Term{Var: d, Coef: gx})
	m.AddRow(lp.LE, gx-cp+cq, tb...)
	tb = tb[:n]
	tb = append(tb, lp.Term{Var: d, Coef: -gx})
	m.AddRow(lp.GE, -gx-cp+cq, tb...)
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
	return tb
}

func (closedM1) Value(w Weights, weighted float64, align int, over int64, reward float64) float64 {
	return uniformValue(w, weighted, align, over)
}
