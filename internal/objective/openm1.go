package objective

import (
	"vm1place/internal/lp"
	"vm1place/internal/tech"
)

// openM1 is the paper's OpenM1 formulation: a pair is realized when the
// two pins' x extents overlap by at least δ within γ rows (Constraints
// (11)-(14)), with the overlap surplus beyond δ rewarded at ε. The MILP
// rows are ported verbatim from the pre-refactor wmilp assembly.
type openM1 struct{}

var openM1Obj GeomObjective = openM1{}

func (openM1) Name() string    { return "openm1" }
func (openM1) Arch() tech.Arch { return tech.OpenM1 }

func (openM1) PairAlpha(w Weights, ni int) float64 { return w.Alpha }

func (openM1) PairEval(w Weights, a, b PinGeom) (bool, int64) {
	lo := max64(a.ExtLo, b.ExtLo)
	hi := min64(a.ExtHi, b.ExtHi)
	if hi-lo >= w.DeltaDBU {
		return true, hi - lo - w.DeltaDBU
	}
	return false, 0
}

// PairFeasible: the best-case overlap across all candidates must reach δ.
func (openM1) PairFeasible(w Weights, a, b PinView) bool {
	loA, _ := minMax64(a.ExtLo)
	_, hiA := minMax64(a.ExtHi)
	loB, _ := minMax64(b.ExtLo)
	_, hiB := minMax64(b.ExtHi)
	best := min64(hiA, hiB) - max64(loA, loB)
	return best >= w.DeltaDBU
}

// EmitPair emits Constraints (11)-(14): interval variables a/b bracket
// the overlap, o is the rewarded surplus, and the binary v releases the
// row gate (14) when the pair spans more than γ rows.
func (openM1) EmitPair(e Emit, w Weights, d int, p, q PinView, tb []lp.Term) []lp.Term {
	m, mm := e.M, e.MM
	loPl, _ := minMax64(p.ExtLo)
	loQl, _ := minMax64(q.ExtLo)
	_, hiPh := minMax64(p.ExtHi)
	_, hiQh := minMax64(q.ExtHi)
	aLo := float64(min64(loPl, loQl))
	bHi := float64(max64(hiPh, hiQh))
	spanX := bHi - aLo
	go1 := spanX + float64(w.DeltaDBU) + 1 // bounds o <= b-a-δ+G(1-d)
	loPy, hiPy := minMax64(p.CenterY)
	loQy, hiQy := minMax64(q.CenterY)
	gy := float64(max64(hiPy-loQy, hiQy-loPy)) + 1
	a := m.AddVar(aLo, bHi, 0, "a")
	b := m.AddVar(aLo, bHi, 0, "b")
	o := m.AddVar(0, spanX, -w.Epsilon, "o")
	v := m.AddVar(0, 1, 0, "v")
	mm.MarkInt(v)
	var c float64
	tb = tb[:0]
	tb, c = AppendPin(tb, p, p.ExtLo, -1)
	tb = append(tb, lp.Term{Var: a, Coef: 1})
	m.AddRow(lp.GE, c, tb...)
	tb = tb[:0]
	tb, c = AppendPin(tb, q, q.ExtLo, -1)
	tb = append(tb, lp.Term{Var: a, Coef: 1})
	m.AddRow(lp.GE, c, tb...)
	tb = tb[:0]
	tb, c = AppendPin(tb, p, p.ExtHi, -1)
	tb = append(tb, lp.Term{Var: b, Coef: 1})
	m.AddRow(lp.LE, c, tb...)
	tb = tb[:0]
	tb, c = AppendPin(tb, q, q.ExtHi, -1)
	tb = append(tb, lp.Term{Var: b, Coef: 1})
	m.AddRow(lp.LE, c, tb...)
	var cpy, cqy float64
	tb = tb[:0]
	tb, cpy = AppendPin(tb, p, p.CenterY, 1)
	tb, cqy = AppendPin(tb, q, q.CenterY, -1)
	n := len(tb)
	tb = append(tb, lp.Term{Var: v, Coef: -gy})
	m.AddRow(lp.LE, e.GammaH-cpy+cqy, tb...)
	tb = tb[:n]
	tb = append(tb, lp.Term{Var: v, Coef: gy})
	m.AddRow(lp.GE, -e.GammaH-cpy+cqy, tb...)
	// (13): o <= b - a - δ + G(1-d); o <= G·d.
	m.AddRow(lp.LE, go1-float64(w.DeltaDBU),
		lp.Term{Var: o, Coef: 1}, lp.Term{Var: b, Coef: -1},
		lp.Term{Var: a, Coef: 1}, lp.Term{Var: d, Coef: go1})
	m.AddRow(lp.LE, 0, lp.Term{Var: o, Coef: 1}, lp.Term{Var: d, Coef: -spanX})
	// (14): d + v <= 1.
	m.AddRow(lp.LE, 1, lp.Term{Var: d, Coef: 1}, lp.Term{Var: v, Coef: 1})
	return tb
}

func (openM1) Value(w Weights, weighted float64, align int, over int64, reward float64) float64 {
	return uniformValue(w, weighted, align, over)
}
