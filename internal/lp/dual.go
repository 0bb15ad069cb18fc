package lp

import (
	"math"
	"slices"
	"time"
)

// Dual-simplex warm starts.
//
// A branch-and-bound driver re-solves one model hundreds of times where
// consecutive solves differ only in variable bounds. Bound changes leave a
// basis dual feasible (reduced costs depend on the objective and the basis,
// not on the bounds), so the optimal basis of any previous solve is a valid
// dual-simplex start for the next one: typically only the handful of basic
// variables whose bounds tightened violate primality, and each is repaired
// by one dual pivot. The basis factorization (with its Forrest–Tomlin
// updates) survives in the arena between solves, so a warm re-solve costs a
// few sparse FTRAN/BTRANs plus those pivots, each pivot one update of U —
// the difference between window MILPs hitting their time budget and
// finishing it.
//
// The start is the last optimal basis the arena solved, unless the caller
// rewinds it: a depth-first driver saves each node's optimal basis
// (Arena.SaveBasis) and restores it (Arena.RestoreBasis) before the node's
// second child, which otherwise would start from the deepest node of its
// sibling's subtree and pay over three times the pivots. A restored basis
// is refactorized once, at the start of the next warm solve.

// maxWarmSolves bounds consecutive warm solves before a forced cold
// refresh. The factorized kernel refactorizes on its own update caps and
// stability test, so drift no longer accumulates the way dense updates did;
// the cap remains as a coarse backstop against pathological bases that the
// triggers miss.
const maxWarmSolves = 256

// warmTol is the dual-feasibility and primal-violation tolerance of the
// warm path; looser than costTol because the inherited basis carries drift.
const warmTol = 1e-6

// warmSolve attempts a dual-simplex solve from the basis the arena kept
// from the previous optimal solve. It returns nil when warm starting is not
// applicable or fails (dual infeasibility after an objective change,
// iteration cap, numerical trouble); the caller then falls back to the cold
// primal path, which rebuilds every piece of state warmSolve touched.
func (s *simplex) warmSolve() *Solution {
	a := s.arena
	if !a.warm || a.warmSolves >= maxWarmSolves {
		return nil
	}
	rows := s.nRows
	s.state = a.state
	s.xN = a.xN
	s.basis = a.basis
	s.inBasisRow = a.inBasisRow
	s.xB = a.xB

	// Refactorize a restored basis (RestoreBasis), and drop the updates if
	// they have outgrown their caps; a basis the factorization rejects is
	// not worth warm starting.
	if a.refactor || s.lu.needsRefactor() {
		a.refactor = false
		if !s.lu.factorize(s.cols, s.basis[:rows]) {
			return nil
		}
	}

	// Re-park nonbasic variables on their (possibly changed) bounds. Free
	// variables parked off-bound keep their value.
	for j := 0; j < s.nTotal; j++ {
		switch {
		case s.state[j] == basic:
		case s.state[j] == atUpper:
			if math.IsInf(s.hi[j], 1) {
				return nil
			}
			s.xN[j] = s.hi[j]
		case !math.IsInf(s.lo[j], -1):
			s.xN[j] = s.lo[j]
		}
	}

	// Reduced costs d_j = c_j − y·A_j with y = Bᵀ⁻¹·c_B (one sparse
	// BTRAN). Dual infeasibilities are repaired by bound flips below;
	// computing d before xB lets the flips feed into the basic-value
	// computation.
	y := a.y
	for i := 0; i < rows; i++ {
		y[i] = s.objP2[s.basis[i]]
	}
	s.lu.btranDense(y[:rows])
	d := a.d
	for j := 0; j < s.nTotal; j++ {
		if s.state[j] == basic {
			d[j] = 0
			continue
		}
		v := s.objP2[j]
		for _, e := range s.cols[j] {
			v -= y[e.row] * e.val
		}
		d[j] = v
		if s.lo[j] == s.hi[j] && !math.IsInf(s.lo[j], 0) {
			continue // fixed variable: any reduced cost is dual feasible
		}
		// Repair dual infeasibilities by bound flips: a nonbasic variable
		// sitting at the wrong bound for its reduced-cost sign simply moves
		// to the other bound (both stay nonbasic, the basis is untouched).
		// These arise because primal pricing tolerances are column-norm
		// scaled, so an “optimal” start can carry reduced costs slightly
		// past warmTol on huge-coefficient columns.
		switch {
		case s.state[j] == atUpper:
			if v > warmTol {
				if math.IsInf(s.lo[j], -1) {
					return nil
				}
				s.state[j] = atLower
				s.xN[j] = s.lo[j]
			}
		case math.IsInf(s.lo[j], -1):
			if math.Abs(v) > warmTol { // free variable needs d ≈ 0
				return nil
			}
		default:
			if v < -warmTol {
				if math.IsInf(s.hi[j], 1) {
					return nil
				}
				s.state[j] = atUpper
				s.xN[j] = s.hi[j]
			}
		}
	}

	// xB = B⁻¹·(b − Σ_{j nonbasic} A_j·xN_j), one sparse FTRAN.
	s.recomputeXB()

	a.ensureRowMatrix() // CSR rows for dualIterate's pivot-row scatter

	sol := s.dualIterate(d, rows+200)
	if sol != nil {
		a.warmSolves++
	}
	return sol
}

// dualIterate runs bounded-variable dual simplex from the current (dual
// feasible) basis until primal feasibility, using the bound-flip ratio
// test: within one iteration, candidates are taken in increasing dual
// ratio; each that cannot absorb the leaving row's whole violation flips
// to its opposite bound (one sparse FTRAN, no basis change), and the first
// that can performs the single actual pivot. One iteration therefore fully
// repairs one violated row, so the pivot count tracks the number of bound
// changes since the basis was optimal — a handful for branch-and-bound
// children.
//
// It returns a nil Solution when the caller should fall back to a cold
// solve (iteration cap or numerical failure: the basis is too far from the
// new bounds to be worth repairing), and an Infeasible Solution when the
// dual is unbounded — the standard certificate that the new bounds admit
// no feasible point. In both cases the basis remains dual feasible for
// future warm starts.
func (s *simplex) dualIterate(d []float64, maxIters int) *Solution {
	rows := s.nRows
	f := s.lu
	alpha := s.arena.alpha
	rho := s.arena.rho
	w := s.arena.w
	type cand struct {
		j     int
		ratio float64
	}
	var cands []cand

	// applyCol moves nonbasic variable j by t: xB -= t·(B⁻¹·A_j), leaving
	// the spike and its nonzero list in w/wInd for a subsequent pivot.
	applyCol := func(j int, t float64) {
		s.arena.wInd = f.ftranSpike(s.cols[j], w, s.arena.wInd)
		if t != 0 {
			for _, wi := range s.arena.wInd {
				s.xB[wi] -= t * w[wi]
			}
		}
	}

	for iters := 0; ; iters++ {
		// Keep the updates inside their caps; refactorization failure sends
		// the caller to the cold path.
		if f.needsRefactor() {
			if !s.refactorize() {
				return nil
			}
		}

		// Leaving row: the most violated basic variable.
		r, viol := -1, warmTol
		toUpper := false
		for i := 0; i < rows; i++ {
			bj := s.basis[i]
			if v := s.lo[bj] - s.xB[i]; v > viol {
				r, viol, toUpper = i, v, false
			}
			if v := s.xB[i] - s.hi[bj]; v > viol {
				r, viol, toUpper = i, v, true
			}
		}
		if r == -1 {
			// Primal feasible and dual feasible throughout: optimal.
			x := s.extractX()
			obj := 0.0
			for j := 0; j < s.nStruct; j++ {
				obj += s.objP2[j] * x[j]
			}
			s.arena.redCost = growSlice(s.arena.redCost, s.nStruct)
			rc := s.arena.redCost[:s.nStruct]
			copy(rc, d[:s.nStruct])
			return &Solution{Status: Optimal, Obj: obj, X: x, Iters: iters,
				RedCost: rc}
		}
		if iters >= maxIters {
			return nil
		}
		if s.arena.hasDL && iters&31 == 31 && time.Now().After(s.arena.deadline) {
			return nil // the primal fallback aborts on the same deadline
		}

		out := s.basis[r]
		target := s.lo[out]
		if toUpper {
			target = s.hi[out]
		}
		delta := s.xB[r] - target // >0 leaving to upper, <0 to lower

		// Pivot row α_j = ρ·A_j with ρ = Bᵀ⁻¹·e_r (one sparse BTRAN of a
		// unit vector). ρ is usually hyper-sparse (a few nonzero rows for a
		// localized basis change), so α is scattered row-by-row from the
		// arena's CSR matrix instead of gathered over every column: only the
		// columns of ρ's nonzero rows are touched, and alphaInd records them
		// so the ratio walk and the dual update below skip the rest.
		f.btranUnit(r, rho[:rows])
		n := s.nStruct
		aInd := s.arena.alphaInd[:0]
		seen := s.arena.alphaSeen
		rowPtr, rowCol, rowVal := s.arena.rowPtr, s.arena.rowCol, s.arena.rowVal
		for i := 0; i < rows; i++ {
			ri := rho[i]
			if ri == 0 {
				continue
			}
			// Slack and artificial columns of row i are the unit vector e_i:
			// they appear in no other row, so no dedup needed.
			sj, aj := int32(n+i), int32(n+rows+i)
			alpha[sj] = ri
			alpha[aj] = ri
			aInd = append(aInd, sj, aj)
			for e := rowPtr[i]; e < rowPtr[i+1]; e++ {
				j := rowCol[e]
				if !seen[j] {
					seen[j] = true
					alpha[j] = 0
					aInd = append(aInd, j)
				}
				alpha[j] += ri * rowVal[e]
			}
		}
		for _, j := range aInd {
			seen[j] = false
		}
		s.arena.alphaInd = aInd

		// Collect the candidates that can move in the direction that shrinks
		// row r's violation, with their dual ratios |d_j/α_rj| (the θ at
		// which reduced cost j would turn infeasible under the update
		// d'_j = d_j − θ·α_rj).
		cands = cands[:0]
		for _, j32 := range aInd {
			j := int(j32)
			if s.state[j] == basic {
				continue
			}
			av := alpha[j]
			if math.Abs(av) < pivotTol {
				continue
			}
			if s.lo[j] == s.hi[j] && !math.IsInf(s.lo[j], 0) {
				continue // fixed variable cannot move
			}
			free := math.IsInf(s.lo[j], -1) && s.state[j] != atUpper
			canInc := s.state[j] == atLower || free
			canDec := s.state[j] == atUpper || free
			if delta > 0 {
				if !((canInc && av > 0) || (canDec && av < 0)) {
					continue
				}
			} else {
				if !((canInc && av < 0) || (canDec && av > 0)) {
					continue
				}
			}
			cands = append(cands, cand{j: j, ratio: math.Abs(d[j]) / math.Abs(av)})
		}
		// Ties broken by column index so the walk order is canonical (it no
		// longer depends on the scatter order above). slices.SortFunc avoids
		// sort.Slice's reflection-based swapper, which showed up at ~10% of a
		// DistOpt pass.
		slices.SortFunc(cands, func(a, b cand) int {
			switch {
			case a.ratio < b.ratio:
				return -1
			case a.ratio > b.ratio:
				return 1
			}
			return a.j - b.j
		})

		// Walk candidates in ratio order, flipping each one whose range
		// cannot absorb the remaining violation; the first that can absorb
		// it becomes the pivot.
		rem := delta
		enter := -1
		var tPivot float64
		for _, c := range cands {
			j := c.j
			av := alpha[j]
			dir := 1.0 // movement sign: need sign(av·dir) == sign(rem)
			if (rem > 0) != (av > 0) {
				dir = -1
			}
			tNeed := rem / (av * dir) // ≥ 0 by construction
			rng := s.hi[j] - s.lo[j]  // +Inf for free variables
			// The warmTol slack absorbs RHS-perturbation and drift epsilons:
			// a candidate whose range covers the step up to tolerance pivots
			// (entering ends at most warmTol past its bound, within the warm
			// path's own violation tolerance) rather than flipping and
			// leaving an epsilon remainder that would read as infeasible.
			if tNeed <= rng+warmTol {
				enter = j
				tPivot = dir * tNeed
				break
			}
			// Full flip to the opposite bound: no basis change, one FTRAN.
			applyCol(j, dir*rng)
			clearSpike(w, s.arena.wInd)
			if dir > 0 {
				s.state[j] = atUpper
				s.xN[j] = s.hi[j]
			} else {
				s.state[j] = atLower
				s.xN[j] = s.lo[j]
			}
			rem -= av * dir * rng
		}
		if enter == -1 {
			// Dual unbounded ⇒ primal infeasible: even with every eligible
			// column flipped to its far bound, row r cannot reach its bound.
			// This is the standard dual-simplex infeasibility certificate;
			// the basis stays dual feasible (flips and pivots preserved it),
			// so later warm starts remain valid. Infeasible children are the
			// common case under group branching, which makes certifying them
			// in a few pivots — instead of a cold two-phase proof — a large
			// share of the warm-start win.
			return &Solution{Status: Infeasible, Iters: iters}
		}

		// Pivot: entering moves by tPivot, absorbing the rest of the
		// violation; the leaving variable exits to the violated bound. The
		// spike applyCol just computed becomes the update of U.
		applyCol(enter, tPivot)
		wInd := s.arena.wInd
		if !f.update(r, w[r], f.nUpdates() == 0) {
			// Unstable update: refactorize (which also rebuilds xB from the
			// nonbasic values, discarding the step just applied) and retry
			// the repair of the same row with a drift-free factorization.
			clearSpike(w, wInd)
			if !s.refactorize() {
				return nil
			}
			continue
		}
		enterVal := s.xN[enter] + tPivot
		s.inBasisRow[out] = -1
		if toUpper {
			s.state[out] = atUpper
		} else {
			s.state[out] = atLower
		}
		s.xN[out] = target
		s.basis[r] = enter
		s.inBasisRow[enter] = r
		s.state[enter] = basic
		s.xB[r] = enterVal
		clearSpike(w, wInd)
		f.stats.Pivots++

		// Dual update: θ = d_enter/α_r,enter; d'_j = d_j − θ·α_rj for the
		// still-nonbasic columns, d'_out = −θ (α_r,out = 1), d'_enter = 0.
		theta := d[enter] / alpha[enter]
		if theta != 0 {
			// Only columns with a nonzero pivot-row entry move; alphaInd
			// lists exactly those.
			for _, j32 := range aInd {
				j := int(j32)
				if s.state[j] != basic && alpha[j] != 0 {
					d[j] -= theta * alpha[j]
				}
			}
		}
		d[out] = -theta
		d[enter] = 0
	}
}
