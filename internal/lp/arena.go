package lp

import (
	"slices"
	"time"
)

// Arena is a reusable scratch workspace for repeated solves. A single
// branch-and-bound run over one window MILP re-solves the same Model
// hundreds of times with different bounds; without a scratch arena every
// solve allocates a fresh basis factorization plus a dozen working
// vectors, which makes allocation and GC a significant cost of the
// optimizer on top of the simplex arithmetic itself.
//
// An Arena is owned by exactly one caller at a time (one DistOpt worker
// goroutine, one MILP solve); it is not safe for concurrent use. Slices
// grow monotonically and are reused across solves of any model — only the
// columns/norm cache below is keyed to a specific model.
type Arena struct {
	// Model-keyed cache: the slack/artificial column structure, the
	// pricing norms and the perturbed RHS depend only on the model's
	// constraint matrix, which is immutable once rows are added (AddVar/
	// AddRow change the dimensions and invalidate the key; SetObj touches
	// only the objective, which is copied fresh every solve).
	model        *Model
	modelGen     uint64
	nVars, nRows int

	cols    [][]entry
	unit    []entry // backing store for slack/artificial unit columns
	colNorm []float64
	rhs     []float64 // perturbed RHS cache

	// Row-wise (CSR) copy of the structural constraint matrix, for the
	// dual-simplex pivot-row computation: α = ρᵀ·A gathered column-by-column
	// costs O(nTotal·nnz/col) per pivot, but scattered row-by-row it only
	// touches the columns of ρ's nonzero rows — and ρ = Bᵀ⁻¹·e_r is usually
	// hyper-sparse. Slack/artificial columns are unit vectors and are
	// scattered directly, so only structural entries are stored.
	rowPtr []int32
	rowCol []int32
	rowVal []float64
	rowCur []int32 // CSR fill cursor scratch (ensureRowMatrix)

	// lu is the sparse basis factorization (factor.go). It persists
	// across solves: a warm re-solve picks up the previous optimal basis's
	// factor and its updates as-is, refactorizing only when the update caps
	// or the stability test fire.
	lu *luFactor

	// Per-solve working storage, reset by newSimplex/solve.
	objP2      []float64
	lo, hi     []float64
	state      []varState
	xN, xB     []float64
	basis      []int
	inBasisRow []int
	resid      []float64
	phase1Obj  []float64
	y, w       []float64
	rho        []float64 // dual-simplex pivot-row BTRAN result
	dualW      []float64 // dual Devex pricing weights, one per basis slot
	wInd       []int32   // nonzero slots of the FTRAN spike in w
	cand       []int32   // pricing candidate list (lp.go)
	candScore  []float64
	d, alpha   []float64 // dual-simplex reduced costs and pivot row
	alphaInd   []int32   // nonzero columns of alpha (dual pivot-row scatter)
	alphaSeen  []bool    // scatter dedup marks; all-false outside the scatter
	redCost    []float64 // Solution.RedCost backing store

	// deadline, when set, makes iterate/dualIterate abort with IterLimit
	// once wall time passes it, so a caller's time budget also interrupts
	// long individual LP solves (big-window root relaxations), not just the
	// gaps between them.
	deadline time.Time
	hasDL    bool

	// Warm-start state: warm is set when the last solve of the bound model
	// finished phase 2 optimal, so the basis factorization left in lu/
	// basis/state/xN is dual feasible for any bound-change re-solve (branch-
	// and-bound children). warmSolves counts consecutive warm solves for
	// the coarse cold-refresh backstop in dual.go.
	warm       bool
	warmSolves int
	// refactor marks lu as not matching basis after RestoreBasis swapped
	// in a saved basis; the next warm solve refactorizes first. The cold
	// path and a model switch in bind clear it (both rebuild lu), so it
	// can never leak into another model's solves.
	refactor bool
}

// NewArena returns an empty scratch workspace.
func NewArena() *Arena { return &Arena{lu: &luFactor{}} }

// SetDeadline arms (or, with the zero time, disarms) the wall-clock abort
// for every solve that uses this arena.
func (a *Arena) SetDeadline(t time.Time) {
	a.deadline = t
	a.hasDL = !t.IsZero()
}

// Stats returns the cumulative simplex-kernel counters of every solve that
// used this arena (solves, pivots, refactorizations, fill-in, update
// nonzeros). See GlobalStats for the process-wide aggregate.
func (a *Arena) Stats() Stats {
	if a.lu == nil {
		return Stats{}
	}
	return a.lu.stats
}

// Basis is a snapshot of an arena's warm-start basis: where every variable
// sits (basic, at lower, at upper) and which variable is basic in each row.
// A branch-and-bound driver saves its node's optimal basis before exploring
// the first child and restores it before the second, so the second child
// warm starts from its parent instead of from the deepest node of its
// sibling's subtree. The zero value is an empty snapshot; slices are reused
// across saves.
//
// Nonbasic values are not kept: a warm solve re-parks every bounded
// nonbasic variable on its bound, and a nonbasic free variable (reduced
// cost 0) is optimal at any value, so RestoreBasis parks those at 0 as the
// cold path does. That keeps a snapshot at one byte per variable plus one
// word per row, which matters because a driver holds one per tree level.
type Basis struct {
	model *Model
	gen   uint64
	state []varState
	basis []int
}

// SaveBasis copies the arena's current basis into b. When the arena holds
// no warm basis (its last solve did not end optimal), b is left empty and
// a later RestoreBasis of it does nothing.
func (a *Arena) SaveBasis(b *Basis) {
	if !a.warm {
		b.model = nil
		return
	}
	nTotal := a.nVars + 2*a.nRows
	b.model, b.gen = a.model, a.modelGen
	b.state = append(b.state[:0], a.state[:nTotal]...)
	b.basis = append(b.basis[:0], a.basis[:a.nRows]...)
}

// RestoreBasis makes the basis saved in b the arena's warm start for its
// next solve. A snapshot of a different model (or generation) than the
// one the arena is bound to is ignored. The basis factorization is rebuilt
// at the start of the next warm solve.
func (a *Arena) RestoreBasis(b *Basis) {
	if b.model == nil || b.model != a.model || b.gen != a.modelGen ||
		len(b.basis) != a.nRows || len(b.state) != a.nVars+2*a.nRows {
		return
	}
	copy(a.state, b.state)
	copy(a.basis, b.basis)
	for j := range b.state {
		a.xN[j] = 0
		a.inBasisRow[j] = -1
	}
	for i, j := range b.basis {
		a.inBasisRow[j] = i
	}
	a.warm = true
	a.refactor = true
}

// bind points the arena at a model, rebuilding the model-keyed caches if
// the model changed, and sizes all per-solve storage. It reports whether
// the caches were reused.
func (a *Arena) bind(m *Model) bool {
	n := m.NumVars()
	rows := m.NumRows()
	nTotal := n + 2*rows
	if a.lu == nil {
		a.lu = &luFactor{}
	}
	cached := a.model == m && a.modelGen == m.gen && a.nVars == n && a.nRows == rows
	if !cached {
		a.model, a.modelGen, a.nVars, a.nRows = m, m.gen, n, rows
		a.warm = false
		a.refactor = false
		a.lu.reset(rows)
		a.cols = growSlice(a.cols, nTotal)
		copy(a.cols, m.cols)
		a.unit = growSlice(a.unit, 2*rows)
		for i := 0; i < rows; i++ {
			a.unit[i] = entry{row: i, val: 1}
			a.unit[rows+i] = entry{row: i, val: 1}
			a.cols[n+i] = a.unit[i : i+1 : i+1]
			a.cols[n+rows+i] = a.unit[rows+i : rows+i+1 : rows+i+1]
		}
		a.colNorm = a.colNorm[:0] // recomputed lazily by iterate
		a.rowPtr = a.rowPtr[:0]   // CSR rebuilt lazily by ensureRowMatrix
		a.rhs = growSlice(a.rhs, rows)
		copy(a.rhs, m.rhs)
		perturbRHS(a.rhs)
	}
	a.objP2 = growSlice(a.objP2, nTotal)
	a.lo = growSlice(a.lo, nTotal)
	a.hi = growSlice(a.hi, nTotal)
	a.state = growSlice(a.state, nTotal)
	a.xN = growSlice(a.xN, nTotal)
	a.xB = growSlice(a.xB, rows)
	a.basis = growSlice(a.basis, rows)
	a.inBasisRow = growSlice(a.inBasisRow, nTotal)
	a.resid = growSlice(a.resid, rows)
	a.phase1Obj = growSlice(a.phase1Obj, nTotal)
	a.y = growSlice(a.y, rows)
	a.w = growSlice(a.w, rows)
	clear(a.w) // spike scratch must start zero (ftranSpike contract)
	a.rho = growSlice(a.rho, rows)
	a.dualW = growSlice(a.dualW, rows)
	a.wInd = growSlice(a.wInd, rows)[:0]
	a.cand = growSlice(a.cand, candListCap)[:0]
	a.candScore = growSlice(a.candScore, candListCap)[:0]
	a.d = growSlice(a.d, nTotal)
	a.alpha = growSlice(a.alpha, nTotal)
	a.alphaInd = growSlice(a.alphaInd, nTotal)[:0]
	a.alphaSeen = growSlice(a.alphaSeen, nTotal)
	return cached
}

// ensureRowMatrix transposes the bound model's structural columns into the
// CSR rows used by the dual pivot-row scatter (see rowPtr). Built on the
// first warm solve rather than in bind: purely cold consumers never pay for
// it. Entries within a row are in ascending column order, which keeps the
// dual candidate walk deterministic.
func (a *Arena) ensureRowMatrix() {
	rows := a.nRows
	if len(a.rowPtr) == rows+1 {
		return
	}
	m := a.model
	a.rowPtr = growSlice(a.rowPtr, rows+1)
	clear(a.rowPtr)
	for j := 0; j < a.nVars; j++ {
		for _, e := range m.cols[j] {
			a.rowPtr[e.row+1]++
		}
	}
	for i := 0; i < rows; i++ {
		a.rowPtr[i+1] += a.rowPtr[i]
	}
	nnz := int(a.rowPtr[rows])
	a.rowCol = growSlice(a.rowCol, nnz)
	a.rowVal = growSlice(a.rowVal, nnz)
	a.rowCur = growSlice(a.rowCur, rows)
	cur := a.rowCur
	copy(cur, a.rowPtr[:rows])
	for j := 0; j < a.nVars; j++ {
		for _, e := range m.cols[j] {
			p := cur[e.row]
			a.rowCol[p] = int32(j)
			a.rowVal[p] = e.val
			cur[e.row] = p + 1
		}
	}
}

// growSlice returns s resized to length n, reusing its backing array when
// capacity allows. Contents are unspecified.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// extendSlice returns s lengthened by n, keeping its contents. The n new
// elements are unspecified.
func extendSlice[T any](s []T, n int) []T {
	return slices.Grow(s, n)[:len(s)+n]
}

// perturbRHS applies the deterministic tiny RHS shift that breaks the
// heavy primal degeneracy of assignment-structured models (thousands of
// stalled pivots otherwise). The shift is ~1e-9 of the problem scale, far
// below integrality and pruning tolerances.
func perturbRHS(rhs []float64) {
	scale := 1.0
	for _, b := range rhs {
		if b > scale {
			scale = b
		} else if -b > scale {
			scale = -b
		}
	}
	for i := range rhs {
		h := uint64(i+1) * 0x9E3779B97F4A7C15
		rhs[i] += 1e-9 * scale * (float64(h%1024)/1024.0 + 0.1)
	}
}
