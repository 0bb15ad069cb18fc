package lp

import "math"

// This file holds a test-only reference solver: the pre-factorization
// bounded-variable primal simplex with an explicit dense nRows×nRows basis
// inverse, kept as an independent oracle for the sparse LU kernel. It shares
// the Model/Solution types and tolerance constants with the live kernel but
// none of its linear algebra: every FTRAN/BTRAN here is a dense matrix-vector
// product against binv, and every pivot is a dense rank-1 eta update. It is
// deliberately slow and allocation-heavy — correctness fixture, not a solver.
type refSimplex struct {
	m *Model

	nStruct int
	nRows   int
	nTotal  int

	cols [][]entry
	obj  []float64
	lo   []float64
	hi   []float64
	rhs  []float64

	state      []varState
	xN         []float64
	basis      []int
	inBasisRow []int
	binv       []float64 // dense nRows x nRows row-major basis inverse
	xB         []float64

	maxIters int
}

// refSolve cold-solves the model with the given bound overrides (nil means
// the model's own bounds) using the dense reference kernel.
func refSolve(m *Model, lo, hi []float64) *Solution {
	if lo == nil {
		lo = m.lo
	}
	if hi == nil {
		hi = m.hi
	}
	return newRefSimplex(m, lo, hi).solve()
}

func newRefSimplex(m *Model, lo, hi []float64) *refSimplex {
	n := m.NumVars()
	rows := m.NumRows()
	s := &refSimplex{
		m:       m,
		nStruct: n,
		nRows:   rows,
		nTotal:  n + 2*rows,
	}
	s.cols = make([][]entry, s.nTotal)
	copy(s.cols, m.cols)
	unit := make([]entry, 2*rows)
	for i := 0; i < rows; i++ {
		unit[i] = entry{row: i, val: 1}
		unit[rows+i] = entry{row: i, val: 1}
		s.cols[n+i] = unit[i : i+1 : i+1]
		s.cols[n+rows+i] = unit[rows+i : rows+i+1 : rows+i+1]
	}
	// Same deterministic RHS perturbation as the live kernel, so the two
	// kernels optimize the identical perturbed problem and objectives agree
	// to roundoff rather than to the perturbation scale.
	s.rhs = append([]float64(nil), m.rhs...)
	perturbRHS(s.rhs)

	s.obj = make([]float64, s.nTotal)
	copy(s.obj, m.obj)
	s.lo = make([]float64, s.nTotal)
	s.hi = make([]float64, s.nTotal)
	copy(s.lo, lo)
	copy(s.hi, hi)
	for i := 0; i < rows; i++ {
		j := n + i
		switch m.sense[i] {
		case LE:
			s.lo[j], s.hi[j] = 0, math.Inf(1)
		case GE:
			s.lo[j], s.hi[j] = math.Inf(-1), 0
		case EQ:
			s.lo[j], s.hi[j] = 0, 0
		}
	}
	for i := 0; i < rows; i++ {
		j := n + rows + i
		s.lo[j], s.hi[j] = 0, 0
	}

	s.maxIters = 200*(rows+n) + 2000
	return s
}

func (s *refSimplex) boundedStart(j int) (float64, varState) {
	switch {
	case !math.IsInf(s.lo[j], -1):
		return s.lo[j], atLower
	case !math.IsInf(s.hi[j], 1):
		return s.hi[j], atUpper
	default:
		return 0, atLower
	}
}

func (s *refSimplex) solve() *Solution {
	n, rows := s.nStruct, s.nRows
	s.state = make([]varState, s.nTotal)
	s.xN = make([]float64, s.nTotal)
	s.basis = make([]int, rows)
	s.inBasisRow = make([]int, s.nTotal)
	for j := range s.inBasisRow {
		s.inBasisRow[j] = -1
	}
	s.binv = make([]float64, rows*rows)
	s.xB = make([]float64, rows)

	for j := 0; j < n+rows; j++ {
		v, st := s.boundedStart(j)
		s.xN[j] = v
		s.state[j] = st
	}
	for j := n + rows; j < s.nTotal; j++ {
		s.xN[j] = 0
		s.state[j] = atLower
	}

	resid := append([]float64(nil), s.rhs...)
	for j := 0; j < n+rows; j++ {
		if s.xN[j] == 0 {
			continue
		}
		for _, e := range s.cols[j] {
			resid[e.row] -= e.val * s.xN[j]
		}
	}

	// Crash basis mirroring the live kernel: feasible rows get their slack
	// basic, violated rows an artificial with unit phase-1 cost.
	phase1Obj := make([]float64, s.nTotal)
	needPhase1 := false
	for i := 0; i < rows; i++ {
		sj := n + i
		aj := n + rows + i
		s.binv[i*rows+i] = 1
		if resid[i] >= s.lo[sj]-feasTol && resid[i] <= s.hi[sj]+feasTol {
			s.basis[i] = sj
			s.inBasisRow[sj] = i
			s.state[sj] = basic
			s.xB[i] = resid[i]
			s.lo[aj], s.hi[aj] = 0, 0
			continue
		}
		s.basis[i] = aj
		s.inBasisRow[aj] = i
		s.state[aj] = basic
		s.xB[i] = resid[i]
		if resid[i] >= 0 {
			s.lo[aj], s.hi[aj] = 0, math.Inf(1)
			phase1Obj[aj] = 1
		} else {
			s.lo[aj], s.hi[aj] = math.Inf(-1), 0
			phase1Obj[aj] = -1
		}
		needPhase1 = true
	}

	totalIters := 0
	if needPhase1 {
		st, it := s.iterate(phase1Obj, true)
		totalIters += it
		if st == IterLimit {
			return &Solution{Status: IterLimit, Iters: totalIters, X: s.extractX()}
		}
		if s.phase1Value(phase1Obj) > 1e-6 {
			return &Solution{Status: Infeasible, Iters: totalIters}
		}
	}

	for i := 0; i < rows; i++ {
		j := n + rows + i
		s.lo[j], s.hi[j] = 0, 0
		if s.state[j] != basic {
			s.xN[j] = 0
		}
	}

	st, it := s.iterate(s.obj, false)
	totalIters += it
	x := s.extractX()
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += s.obj[j] * x[j]
	}
	switch st {
	case Unbounded:
		return &Solution{Status: Unbounded, Iters: totalIters}
	case IterLimit:
		return &Solution{Status: IterLimit, Obj: obj, X: x, Iters: totalIters}
	default:
		return &Solution{Status: Optimal, Obj: obj, X: x, Iters: totalIters}
	}
}

func (s *refSimplex) phase1Value(obj []float64) float64 {
	v := 0.0
	for i, j := range s.basis {
		v += obj[j] * s.xB[i]
	}
	for j := 0; j < s.nTotal; j++ {
		if s.state[j] != basic && obj[j] != 0 {
			v += obj[j] * s.xN[j]
		}
	}
	return math.Abs(v)
}

func (s *refSimplex) extractX() []float64 {
	x := make([]float64, s.nStruct)
	for j := 0; j < s.nStruct; j++ {
		if r := s.inBasisRow[j]; r >= 0 {
			x[j] = s.xB[r]
		} else {
			x[j] = s.xN[j]
		}
	}
	return x
}

func (s *refSimplex) iterate(obj []float64, stopAtZero bool) (Status, int) {
	rows := s.nRows
	y := make([]float64, rows)
	w := make([]float64, rows)
	iters := 0
	degenerate := 0

	colNorm := make([]float64, s.nTotal)
	for j := 0; j < s.nTotal; j++ {
		sum := 1.0
		for _, e := range s.cols[j] {
			sum += e.val * e.val
		}
		colNorm[j] = math.Sqrt(sum)
	}

	for ; iters < s.maxIters; iters++ {
		if stopAtZero {
			v := 0.0
			for i := 0; i < rows; i++ {
				if c := obj[s.basis[i]]; c != 0 {
					v += c * s.xB[i]
				}
			}
			if v < 1e-7 {
				return Optimal, iters
			}
		}
		// y = c_B^T * Binv, recomputed densely every iteration.
		for i := 0; i < rows; i++ {
			y[i] = 0
		}
		for i := 0; i < rows; i++ {
			cb := obj[s.basis[i]]
			if cb == 0 {
				continue
			}
			row := s.binv[i*rows : (i+1)*rows]
			for k := 0; k < rows; k++ {
				y[k] += cb * row[k]
			}
		}

		useBland := degenerate > 2*rows+20
		enter := -1
		var enterDir float64
		best := -costTol
		for j := 0; j < s.nTotal; j++ {
			if s.state[j] == basic {
				continue
			}
			if s.lo[j] == s.hi[j] && !math.IsInf(s.lo[j], 0) {
				continue
			}
			d := obj[j]
			for _, e := range s.cols[j] {
				d -= y[e.row] * e.val
			}
			var dir float64
			switch {
			case s.state[j] == atLower && d < -costTol:
				dir = 1
			case s.state[j] == atUpper && d > costTol:
				dir = -1
			case s.state[j] == atLower && math.IsInf(s.lo[j], -1) && d > costTol:
				dir = -1
			default:
				continue
			}
			score := -math.Abs(d) / colNorm[j]
			if useBland {
				enter = j
				enterDir = dir
				break
			}
			if score < best {
				best = score
				enter = j
				enterDir = dir
			}
		}
		if enter == -1 {
			return Optimal, iters
		}

		// w = Binv * A_enter
		for i := 0; i < rows; i++ {
			w[i] = 0
		}
		for _, e := range s.cols[enter] {
			v := e.val
			for i := 0; i < rows; i++ {
				w[i] += v * s.binv[i*rows+e.row]
			}
		}

		tMax := math.Inf(1)
		leave := -1
		leaveToUpper := false
		if !math.IsInf(s.lo[enter], -1) && !math.IsInf(s.hi[enter], 1) {
			tMax = s.hi[enter] - s.lo[enter]
		}
		for i := 0; i < rows; i++ {
			if math.Abs(w[i]) < pivotTol {
				continue
			}
			delta := -enterDir * w[i]
			var lim float64
			var toUpper bool
			if delta < 0 {
				if math.IsInf(s.lo[s.basis[i]], -1) {
					continue
				}
				lim = (s.xB[i] - s.lo[s.basis[i]]) / -delta
				toUpper = false
			} else {
				if math.IsInf(s.hi[s.basis[i]], 1) {
					continue
				}
				lim = (s.hi[s.basis[i]] - s.xB[i]) / delta
				toUpper = true
			}
			if lim < 0 {
				lim = 0
			}
			if lim < tMax {
				tMax = lim
				leave = i
				leaveToUpper = toUpper
			}
		}

		if math.IsInf(tMax, 1) {
			return Unbounded, iters
		}
		if tMax < feasTol {
			degenerate++
		} else {
			degenerate = 0
		}

		enterVal := s.xN[enter] + enterDir*tMax
		for i := 0; i < rows; i++ {
			s.xB[i] -= enterDir * tMax * w[i]
		}

		if leave == -1 {
			s.xN[enter] = enterVal
			if enterDir > 0 {
				s.state[enter] = atUpper
			} else {
				s.state[enter] = atLower
			}
			continue
		}

		out := s.basis[leave]
		s.inBasisRow[out] = -1
		if leaveToUpper {
			s.state[out] = atUpper
			s.xN[out] = s.hi[out]
		} else {
			s.state[out] = atLower
			s.xN[out] = s.lo[out]
		}
		s.basis[leave] = enter
		s.inBasisRow[enter] = leave
		s.state[enter] = basic
		s.xB[leave] = enterVal

		// Dense eta update of Binv.
		piv := w[leave]
		prow := s.binv[leave*rows : (leave+1)*rows]
		inv := 1 / piv
		for k := 0; k < rows; k++ {
			prow[k] *= inv
		}
		for i := 0; i < rows; i++ {
			if i == leave {
				continue
			}
			f := w[i]
			if f == 0 {
				continue
			}
			row := s.binv[i*rows : (i+1)*rows]
			for k := 0; k < rows; k++ {
				row[k] -= f * prow[k]
			}
		}
	}
	return IterLimit, iters
}
