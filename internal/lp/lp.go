// Package lp implements a bounded-variable revised simplex solver for
// linear programs in the form
//
//	minimize    cᵀx
//	subject to  aᵢᵀx {≤,=,≥} bᵢ   for every row i
//	            lo ≤ x ≤ hi       (bounds may be ±Inf)
//
// It is the LP engine underneath internal/milp, which together replace the
// CPLEX solver of the DAC'17 paper. The basis is kept as a sparse LU
// factorization (Markowitz-ordered, with Forrest–Tomlin updates and
// periodic refactorization — factor.go) driving sparse FTRAN/BTRAN solves
// (ftran.go), so each pivot costs O(nnz) on the overwhelmingly sparse
// window-MILP constraint matrices instead of the O(rows²) a dense explicit
// inverse pays. Pricing runs over a candidate list refreshed by periodic
// full scans, so iterations stop scanning every column. Re-solves under
// changed bounds warm start through the dual simplex (dual.go).
package lp

import (
	"fmt"
	"math"
	"time"
)

// Sense is a linear constraint's relational operator.
type Sense int8

const (
	LE Sense = iota // aᵀx ≤ b
	GE              // aᵀx ≥ b
	EQ              // aᵀx = b
)

// String implements fmt.Stringer.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Sense(%d)", int8(s))
	}
}

// Status reports the outcome of a solve.
type Status int

const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit

	numStatus // sentinel: add new statuses above and name them below
)

// statusNames names every Status; statusTableTest asserts it stays
// exhaustive so a new status cannot ship without a name.
var statusNames = [numStatus]string{
	Optimal:    "optimal",
	Infeasible: "infeasible",
	Unbounded:  "unbounded",
	IterLimit:  "iteration-limit",
}

// String implements fmt.Stringer.
func (s Status) String() string {
	if s >= 0 && s < numStatus {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// statusNumFail is an internal sentinel for numerical failure (a basis the
// factorization cannot handle). It never escapes the package: solve maps
// it to IterLimit after disabling the warm-start state.
const statusNumFail Status = -1

// Term is one coefficient of a constraint row.
type Term struct {
	Var  int
	Coef float64
}

type entry struct {
	row int
	val float64
}

// Model is a mutable LP. Build with AddVar/AddRow, then call Solve. A Model
// may be solved repeatedly (e.g., with different bounds from a
// branch-and-bound driver); Solve does not mutate the model.
type Model struct {
	obj []float64
	lo  []float64
	hi  []float64

	sense []Sense
	rhs   []float64
	// cols[j] holds the sparse column of structural variable j.
	cols [][]entry

	// gen distinguishes logical models sharing one reused *Model (Reset
	// bumps it), so an Arena's pointer-keyed cache cannot mistake a rebuilt
	// model for the one it bound earlier.
	gen uint64
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// Reset empties the model for rebuilding in place, keeping the per-variable
// column backing so a pooled model's AddVar/AddRow steady state is
// allocation-free. Any Arena bound to the old contents re-binds cold on its
// next solve (the generation bump invalidates the pointer-keyed cache).
func (m *Model) Reset() {
	m.gen++
	m.obj = m.obj[:0]
	m.lo = m.lo[:0]
	m.hi = m.hi[:0]
	m.sense = m.sense[:0]
	m.rhs = m.rhs[:0]
	m.cols = m.cols[:0]
}

// NumVars returns the number of structural variables.
func (m *Model) NumVars() int { return len(m.obj) }

// NumRows returns the number of constraints.
func (m *Model) NumRows() int { return len(m.rhs) }

// AddVar adds a variable with bounds [lo, hi] and objective coefficient
// obj, returning its index. Use math.Inf for unbounded sides. name labels
// the variable in the panic for lo > hi.
func (m *Model) AddVar(lo, hi, obj float64, name string) int {
	if lo > hi {
		panic(fmt.Sprintf("lp: variable %q has lo %g > hi %g", name, lo, hi)) // panic-ok: invariant
	}
	m.obj = append(m.obj, obj)
	m.lo = append(m.lo, lo)
	m.hi = append(m.hi, hi)
	// Re-extend over a Reset model's column backing instead of appending
	// nil, so pooled models keep their per-column entry storage.
	if len(m.cols) < cap(m.cols) {
		m.cols = m.cols[:len(m.cols)+1]
		m.cols[len(m.cols)-1] = m.cols[len(m.cols)-1][:0]
	} else {
		m.cols = append(m.cols, nil)
	}
	return len(m.obj) - 1
}

// SetObj overwrites the objective coefficient of variable j.
func (m *Model) SetObj(j int, c float64) { m.obj[j] = c }

// Bounds returns copies of the variable bound vectors, for branch-and-bound
// drivers that solve with tightened bounds.
func (m *Model) Bounds() (lo, hi []float64) {
	lo = append([]float64(nil), m.lo...)
	hi = append([]float64(nil), m.hi...)
	return lo, hi
}

// AddRow adds the constraint Σ terms {sense} rhs and returns its row index.
// Duplicate variables within terms are merged; zero coefficients dropped.
func (m *Model) AddRow(sense Sense, rhs float64, terms ...Term) int {
	r := len(m.rhs)
	m.sense = append(m.sense, sense)
	m.rhs = append(m.rhs, rhs)
	// Merge in place: a column's last entry carries row r exactly when this
	// row already touched that variable, so duplicates fold without a map
	// (and without its per-row allocation).
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(m.obj) {
			panic(fmt.Sprintf("lp: row %d references unknown variable %d", r, t.Var)) // panic-ok: invariant
		}
		col := m.cols[t.Var]
		if k := len(col); k > 0 && col[k-1].row == r {
			col[k-1].val += t.Coef
		} else {
			m.cols[t.Var] = append(col, entry{row: r, val: t.Coef})
		}
	}
	// Drop entries that merged (or started) to exactly zero.
	for _, t := range terms {
		col := m.cols[t.Var]
		if k := len(col); k > 0 && col[k-1].row == r && col[k-1].val == 0 {
			m.cols[t.Var] = col[:k-1]
		}
	}
	return r
}

// Row returns row i's sense, right-hand side and terms, in variable order.
// It scans every column, so it serves inspection, not solver loops.
func (m *Model) Row(i int) (Sense, float64, []Term) {
	var terms []Term
	for j, col := range m.cols {
		for _, e := range col {
			if e.row >= i {
				if e.row == i {
					terms = append(terms, Term{Var: j, Coef: e.val})
				}
				break
			}
		}
	}
	return m.sense[i], m.rhs[i], terms
}

// Solution is the result of a Solve.
type Solution struct {
	Status Status
	Obj    float64
	// X holds structural variable values (valid when Status is Optimal or
	// IterLimit).
	X     []float64
	Iters int
	// RedCost holds the structural variables' reduced costs at the final
	// basis (valid when Status is Optimal; basic variables read 0). The
	// slice is owned by the solve's Arena and overwritten by its next
	// solve — callers must consume it before re-solving.
	RedCost []float64
}

// Solve optimizes the model with its stored bounds.
func (m *Model) Solve() *Solution { return m.SolveWithBounds(nil, nil) }

// SolveWithBounds optimizes with per-variable bound overrides. nil slices
// mean "use the model's bounds"; otherwise the slices must have NumVars
// entries. The model itself is not modified.
func (m *Model) SolveWithBounds(lo, hi []float64) *Solution {
	return m.SolveWithHint(lo, hi, nil)
}

// SolveWithHint additionally accepts a warm-start hint: each structural
// variable starts nonbasic at the bound nearest its hint value (when that
// bound is finite). A hint near a feasible point — e.g. a known incumbent
// in branch and bound — drastically shortens phase 1. Hints never affect
// correctness, only the starting basis.
func (m *Model) SolveWithHint(lo, hi, hint []float64) *Solution {
	return m.SolveWithScratch(lo, hi, hint, nil)
}

// SolveWithScratch is SolveWithHint with an explicit scratch arena.
// Passing the same Arena across repeated solves (branch-and-bound node
// relaxations, per-worker window solves) reuses all large working storage
// — most importantly the basis LU factorization and its updates — and the
// model-keyed column/norm caches. A nil arena allocates a private one.
func (m *Model) SolveWithScratch(lo, hi, hint []float64, a *Arena) *Solution {
	if lo == nil {
		lo = m.lo
	}
	if hi == nil {
		hi = m.hi
	}
	if len(lo) != len(m.obj) || len(hi) != len(m.obj) {
		panic("lp: bound override length mismatch") // panic-ok: invariant
	}
	if hint != nil && len(hint) != len(m.obj) {
		panic("lp: hint length mismatch") // panic-ok: invariant
	}
	if a == nil {
		a = NewArena()
	}
	s := newSimplex(m, lo, hi, a)
	s.hint = hint
	return s.solve()
}

const (
	feasTol  = 1e-7
	pivotTol = 1e-9
	costTol  = 1e-9
)

// varState tracks where a variable currently sits.
type varState int8

const (
	atLower varState = iota
	atUpper
	basic
)

// simplex is one solve's working state. Total variables are structural
// (0..n-1), then slacks (n..n+m-1), then artificials (n+m..n+2m-1).
// All large vectors live in the arena and are reused across solves.
type simplex struct {
	m     *Model
	arena *Arena

	nStruct int
	nRows   int
	nTotal  int

	cols  [][]entry // sparse columns for all variables
	objP2 []float64
	lo    []float64
	hi    []float64
	rhs   []float64

	state      []varState
	xN         []float64 // value of each nonbasic variable (at a bound)
	basis      []int     // basis[i] = variable basic in slot/row i
	inBasisRow []int     // inverse of basis: slot of a basic var, or -1
	lu         *luFactor // sparse LU of the basis + its updates
	xB         []float64 // values of basic variables by slot

	maxIters int

	// hint holds preferred starting values for structural variables.
	hint []float64
}

func newSimplex(m *Model, lo, hi []float64, a *Arena) *simplex {
	n := m.NumVars()
	rows := m.NumRows()
	a.bind(m)
	s := &simplex{
		m:       m,
		arena:   a,
		nStruct: n,
		nRows:   rows,
		nTotal:  n + 2*rows,
	}
	// Columns and the perturbed RHS come from the arena's model-keyed
	// cache (rebuilt by bind when the model changed); the objective and
	// bound vectors are copied fresh every solve.
	s.cols = a.cols
	s.rhs = a.rhs
	s.objP2 = a.objP2
	copy(s.objP2, m.obj)
	for j := n; j < s.nTotal; j++ {
		s.objP2[j] = 0
	}
	s.lo = a.lo
	s.hi = a.hi
	copy(s.lo, lo)
	copy(s.hi, hi)
	s.lu = a.lu

	// Slacks: row i gets slack n+i with bounds by sense.
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
	// Artificials: row i gets n+rows+i; bounds set during phase 1 setup.
	for i := 0; i < rows; i++ {
		j := n + rows + i
		s.lo[j], s.hi[j] = 0, 0
	}

	s.maxIters = 200*(rows+n) + 2000
	return s
}

// boundedStart returns the starting value for a nonbasic variable,
// honoring the warm-start hint for structural variables.
func (s *simplex) boundedStart(j int) (float64, varState) {
	loOK := !math.IsInf(s.lo[j], -1)
	hiOK := !math.IsInf(s.hi[j], 1)
	if s.hint != nil && j < s.nStruct && loOK && hiOK {
		if s.hint[j]-s.lo[j] > s.hi[j]-s.hint[j] {
			return s.hi[j], atUpper
		}
		return s.lo[j], atLower
	}
	switch {
	case loOK:
		return s.lo[j], atLower
	case hiOK:
		return s.hi[j], atUpper
	default:
		// Free variable: park at 0, treated as atLower with -inf bound;
		// pricing handles both directions via reduced-cost sign.
		return 0, atLower
	}
}

func (s *simplex) solve() *Solution {
	// Dual-simplex warm start from the previous solve's optimal basis (see
	// dual.go); bound-change re-solves usually finish in a few pivots. The
	// cold path below is the fallback and rebuilds all state from scratch.
	sol := s.warmSolve()
	if sol == nil {
		s.arena.warm = false
		sol = s.primalColdSolve()
	}
	s.lu.stats.Solves++
	s.lu.flushGlobal()
	return sol
}

func (s *simplex) primalColdSolve() *Solution {
	n, rows := s.nStruct, s.nRows
	s.state = s.arena.state
	s.xN = s.arena.xN
	s.basis = s.arena.basis
	s.inBasisRow = s.arena.inBasisRow
	for j := 0; j < s.nTotal; j++ {
		s.inBasisRow[j] = -1
	}
	s.xB = s.arena.xB

	// All structural and slack variables start nonbasic at a bound;
	// artificials start fixed at zero (the crash loop below releases the
	// ones that phase 1 needs).
	for j := 0; j < n+rows; j++ {
		v, st := s.boundedStart(j)
		s.xN[j] = v
		s.state[j] = st
	}
	for j := n + rows; j < s.nTotal; j++ {
		s.xN[j] = 0
		s.state[j] = atLower
	}

	// Residuals with all structural and slack variables at their starting
	// bounds.
	resid := s.arena.resid
	copy(resid, s.rhs)
	for j := 0; j < n+rows; j++ {
		if s.xN[j] == 0 {
			continue
		}
		for _, e := range s.cols[j] {
			resid[e.row] -= e.val * s.xN[j]
		}
	}

	// Crash basis: a row whose residual fits inside its slack's bounds
	// gets the slack as its (feasible) basic variable; only the violated
	// rows receive a unit-cost artificial. With a good warm-start hint,
	// most rows start feasible and phase 1 is short or skipped entirely.
	phase1Obj := s.arena.phase1Obj
	clear(phase1Obj)
	needPhase1 := false
	for i := 0; i < rows; i++ {
		sj := n + i
		aj := n + rows + i
		if resid[i] >= s.lo[sj]-feasTol && resid[i] <= s.hi[sj]+feasTol {
			s.basis[i] = sj
			s.inBasisRow[sj] = i
			s.state[sj] = basic
			s.xB[i] = resid[i]
			// Artificial stays fixed at zero.
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

	// The crash basis is all unit columns — its factorization is trivial
	// and cannot fail. It replaces any basis RestoreBasis left pending.
	s.arena.refactor = false
	s.lu.reset(rows)
	if !s.lu.factorize(s.cols, s.basis[:rows]) {
		return s.numFail(0)
	}

	totalIters := 0
	if needPhase1 {
		st, it := s.iterate(phase1Obj, true)
		totalIters += it
		if st == statusNumFail {
			return s.numFail(totalIters)
		}
		if st == IterLimit {
			return &Solution{Status: IterLimit, Iters: totalIters, X: s.extractX()}
		}
		if s.phase1Value(phase1Obj) > 1e-6 {
			return &Solution{Status: Infeasible, Iters: totalIters}
		}
	}

	// Fix artificials to zero for phase 2. Any artificial still basic sits
	// at value ~0; clamping its bounds to [0,0] keeps it there.
	for i := 0; i < rows; i++ {
		j := n + rows + i
		s.lo[j], s.hi[j] = 0, 0
		if s.state[j] != basic {
			s.xN[j] = 0
		}
	}

	st, it := s.iterate(s.objP2, false)
	totalIters += it
	if st == statusNumFail {
		return s.numFail(totalIters)
	}
	x := s.extractX()
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += s.objP2[j] * x[j]
	}
	switch st {
	case Unbounded:
		return &Solution{Status: Unbounded, Iters: totalIters}
	case IterLimit:
		return &Solution{Status: IterLimit, Obj: obj, X: x, Iters: totalIters}
	default:
		// The final basis is optimal, hence dual feasible for any bounds:
		// keep its factorization in the arena for dual-simplex warm starts.
		s.arena.warm = true
		s.arena.warmSolves = 0
		return &Solution{Status: Optimal, Obj: obj, X: x, Iters: totalIters,
			RedCost: s.redCosts()}
	}
}

// numFail maps an unrecoverable numerical failure (a basis the
// factorization rejects as singular) to IterLimit and poisons the
// warm-start state so the next solve rebuilds from scratch. Branch-and-
// bound treats IterLimit as "node unresolved", which is the conservative
// and correct reading.
func (s *simplex) numFail(iters int) *Solution {
	s.arena.warm = false
	return &Solution{Status: IterLimit, Iters: iters}
}

func (s *simplex) phase1Value(obj []float64) float64 {
	v := 0.0
	for i, j := range s.basis[:s.nRows] {
		v += obj[j] * s.xB[i]
	}
	for j := 0; j < s.nTotal; j++ {
		if s.state[j] != basic && obj[j] != 0 {
			v += obj[j] * s.xN[j]
		}
	}
	return math.Abs(v)
}

// extractX reads the structural solution.
func (s *simplex) extractX() []float64 {
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

// refactorize rebuilds the basis factorization from scratch and refreshes
// the basic values from the bounds and RHS, washing out update drift. It
// reports false when the basis is numerically singular.
func (s *simplex) refactorize() bool {
	if !s.lu.factorize(s.cols, s.basis[:s.nRows]) {
		return false
	}
	s.recomputeXB()
	return true
}

// recomputeXB refreshes xB = B⁻¹(b − N·x_N) with one FTRAN.
func (s *simplex) recomputeXB() {
	resid := s.arena.resid
	copy(resid, s.rhs)
	for j := 0; j < s.nTotal; j++ {
		if s.state[j] == basic || s.xN[j] == 0 {
			continue
		}
		v := s.xN[j]
		for _, e := range s.cols[j] {
			resid[e.row] -= e.val * v
		}
	}
	s.lu.ftranDense(resid)
	copy(s.xB[:s.nRows], resid)
}

// priceColumn computes nonbasic column j's reduced cost under duals y and
// its improving movement direction (0 when j cannot improve).
func (s *simplex) priceColumn(j int, obj, y []float64) (d, dir float64) {
	d = obj[j]
	for _, e := range s.cols[j] {
		d -= y[e.row] * e.val
	}
	switch {
	case s.state[j] == atLower && d < -costTol:
		dir = 1
	case s.state[j] == atUpper && d > costTol:
		dir = -1
	case s.state[j] == atLower && math.IsInf(s.lo[j], -1) && d > costTol:
		// Free variable parked at 0 can also decrease.
		dir = -1
	}
	return d, dir
}

// priceSkip reports whether column j is excluded from pricing outright.
func (s *simplex) priceSkip(j int) bool {
	return s.state[j] == basic ||
		(s.lo[j] == s.hi[j] && !math.IsInf(s.lo[j], 0))
}

// candListCap bounds the pricing candidate list. Minor iterations refresh
// and choose among at most this many columns; a full scan only happens
// when the list runs dry (and once more to prove optimality).
const candListCap = 32

// priceFull scans every column, returning the best entering candidate and
// rebuilding the arena's candidate list with the top-scoring improvers.
// (A sectional/rotating partial scan was tried here and lost: the worse
// entering choices cost ~20% more pivots than the complete Dantzig pass
// saves in scan time on window-MILP-sized models.)
func (s *simplex) priceFull(obj, y, colNorm []float64) (enter int, enterDir, enterD float64) {
	cand := s.arena.cand[:0]
	scores := s.arena.candScore[:0]
	enter = -1
	best := 0.0
	minAt := 0
	for j := 0; j < s.nTotal; j++ {
		if s.priceSkip(j) {
			continue
		}
		d, dir := s.priceColumn(j, obj, y)
		if dir == 0 {
			continue
		}
		score := math.Abs(d) / colNorm[j]
		if score > best {
			best, enter, enterDir, enterD = score, j, dir, d
		}
		// Keep the top-scoring improvers, unordered: replace the current
		// minimum once the list is full (priceMinor never relies on order).
		if len(cand) < candListCap {
			cand = append(cand, int32(j))
			scores = append(scores, score)
			if score < scores[minAt] {
				minAt = len(cand) - 1
			}
		} else if score > scores[minAt] {
			cand[minAt], scores[minAt] = int32(j), score
			minAt = 0
			for t := 1; t < len(scores); t++ {
				if scores[t] < scores[minAt] {
					minAt = t
				}
			}
		}
	}
	s.arena.cand = cand
	s.arena.candScore = scores
	return enter, enterDir, enterD
}

// priceMinor re-prices only the candidate list under the current duals —
// the stale-reduced-cost refresh — compacting out entries that went basic,
// got fixed, or stopped improving, and returns the best survivor.
func (s *simplex) priceMinor(obj, y, colNorm []float64) (enter int, enterDir, enterD float64) {
	cand := s.arena.cand
	scores := s.arena.candScore
	enter = -1
	best := 0.0
	w := 0
	for _, cj := range cand {
		j := int(cj)
		if s.priceSkip(j) {
			continue
		}
		d, dir := s.priceColumn(j, obj, y)
		if dir == 0 {
			continue
		}
		score := math.Abs(d) / colNorm[j]
		cand[w], scores[w] = cj, score
		w++
		if score > best {
			best, enter, enterDir, enterD = score, j, dir, d
		}
	}
	s.arena.cand = cand[:w]
	s.arena.candScore = scores[:w]
	return enter, enterDir, enterD
}

// priceBland returns the lowest-indexed improving column — the
// anti-cycling fallback after a long degenerate run.
func (s *simplex) priceBland(obj, y []float64) (enter int, enterDir, enterD float64) {
	for j := 0; j < s.nTotal; j++ {
		if s.priceSkip(j) {
			continue
		}
		d, dir := s.priceColumn(j, obj, y)
		if dir != 0 {
			return j, dir, d
		}
	}
	return -1, 0, 0
}

// iterate runs primal simplex with the given objective until optimality,
// unboundedness, the iteration cap, or numerical failure (statusNumFail).
// When stopAtZero is set (phase 1), iteration ends as soon as the
// objective reaches zero.
func (s *simplex) iterate(obj []float64, stopAtZero bool) (Status, int) {
	rows := s.nRows
	f := s.lu
	y := s.arena.y
	w := s.arena.w
	iters := 0
	degenerate := 0

	// Static steepest-edge-style pricing weights: reduced costs are
	// compared after scaling by column norm, which keeps huge-coefficient
	// columns (big-G indicator rows, DBU-scale coordinates) from starving
	// the cheap structural pivots. The norms depend only on the constraint
	// matrix, so they live in the arena's model-keyed cache and survive
	// across the hundreds of re-solves of one branch-and-bound run.
	if len(s.arena.colNorm) < s.nTotal {
		s.arena.colNorm = growSlice(s.arena.colNorm, s.nTotal)
		for j := 0; j < s.nTotal; j++ {
			sum := 1.0
			for _, e := range s.cols[j] {
				sum += e.val * e.val
			}
			s.arena.colNorm[j] = math.Sqrt(sum)
		}
	}
	colNorm := s.arena.colNorm

	// The duals y = Bᵀ⁻¹·c_B are refreshed by one sparse BTRAN after every
	// basis change (bound flips leave them valid). The candidate list is
	// invalid for this objective until the first full pricing pass.
	yStale := true
	s.arena.cand = s.arena.cand[:0]

	for ; iters < s.maxIters; iters++ {
		if s.arena.hasDL && iters&31 == 0 && time.Now().After(s.arena.deadline) {
			return IterLimit, iters
		}
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
		if f.needsRefactor() {
			if !s.refactorize() {
				return statusNumFail, iters
			}
			yStale = true
		}
		if yStale {
			for i := 0; i < rows; i++ {
				y[i] = obj[s.basis[i]]
			}
			f.btranDense(y[:rows])
			yStale = false
		}

		// Pricing: candidate-list minor pass, falling back to a full scan
		// when the list runs dry; Bland's rule after a degenerate run
		// guarantees termination.
		var enter int
		var enterDir float64
		if degenerate > 2*rows+20 {
			enter, enterDir, _ = s.priceBland(obj, y)
		} else {
			enter, enterDir, _ = s.priceMinor(obj, y, colNorm)
			if enter == -1 {
				enter, enterDir, _ = s.priceFull(obj, y, colNorm)
			}
		}
		if enter == -1 {
			return Optimal, iters
		}

		// Spike w = B⁻¹·A_enter by sparse FTRAN; wInd lists its nonzero
		// slots so the ratio test and updates below are O(nnz).
		wInd := f.ftranSpike(s.cols[enter], w, s.arena.wInd)
		s.arena.wInd = wInd

		// Ratio test: entering moves by t ≥ 0 in direction enterDir;
		// basic i changes by -enterDir * t * w[i].
		tMax := math.Inf(1)
		leave := -1 // slot leaving, or -1 for bound flip
		leaveToUpper := false
		if !math.IsInf(s.lo[enter], -1) && !math.IsInf(s.hi[enter], 1) {
			tMax = s.hi[enter] - s.lo[enter]
		}
		for _, wi := range wInd {
			i := int(wi)
			if math.Abs(w[i]) < pivotTol {
				continue
			}
			delta := -enterDir * w[i] // basic i moves by delta per unit t
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
			clearSpike(w, wInd)
			return Unbounded, iters
		}
		if tMax < feasTol {
			degenerate++
		} else {
			degenerate = 0
		}

		if leave == -1 {
			// Bound flip: entering moves bound-to-bound, basis unchanged
			// (and the duals stay valid).
			for _, wi := range wInd {
				s.xB[wi] -= enterDir * tMax * w[wi]
			}
			s.xN[enter] += enterDir * tMax
			if enterDir > 0 {
				s.state[enter] = atUpper
			} else {
				s.state[enter] = atLower
			}
			clearSpike(w, wInd)
			continue
		}

		// Update the factorization before committing the basis change; an
		// unstable update refactorizes and re-prices instead
		// (forced through when the factorization is already fresh — the
		// ratio test bounded the pivot away from zero).
		if !f.update(leave, w[leave], f.nUpdates() == 0) {
			clearSpike(w, wInd)
			if !s.refactorize() {
				return statusNumFail, iters
			}
			yStale = true
			continue
		}

		// Commit the step and the basis exchange.
		enterVal := s.xN[enter] + enterDir*tMax
		for _, wi := range wInd {
			s.xB[wi] -= enterDir * tMax * w[wi]
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
		clearSpike(w, wInd)
		f.stats.Pivots++
		yStale = true
	}
	return IterLimit, iters
}

// redCosts computes the structural reduced costs at the current basis into
// the arena's buffer, using the dual vector the last pricing round left in
// the arena (exact for the final basis: no pivot follows the last pricing).
func (s *simplex) redCosts() []float64 {
	s.arena.redCost = growSlice(s.arena.redCost, s.nStruct)
	rc := s.arena.redCost[:s.nStruct]
	y := s.arena.y
	for j := 0; j < s.nStruct; j++ {
		if s.state[j] == basic {
			rc[j] = 0
			continue
		}
		v := s.objP2[j]
		for _, e := range s.cols[j] {
			v -= y[e.row] * e.val
		}
		rc[j] = v
	}
	return rc
}
