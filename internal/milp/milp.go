// Package milp implements a branch-and-bound mixed-integer linear
// programming solver over the internal/lp simplex. Together they replace
// the CPLEX 12.6.3 solver of the DAC'17 paper's flow.
//
// The solver is tuned for the structure of the paper's window MILPs:
// candidate-selection binaries organized in "exactly one per cell" groups
// (the SCP model of Li & Koh), plus indicator binaries coupled through
// big-G rows. Callers can register the groups to enable balanced
// group-splitting branching, provide an incumbent (the input placement is
// always feasible), and bound the search with node and time budgets —
// mirroring how a CPLEX run would be time-limited per window.
package milp

import (
	"math"
	"slices"
	"sync"
	"time"

	"vm1place/internal/lp"
)

// intTol is the integrality tolerance: values within intTol of an integer
// are considered integral.
const intTol = 1e-6

// absGap prunes a node whose LP bound is within absGap of the incumbent.
const absGap = 1e-6

// Status reports the outcome of a MILP solve.
type Status int

const (
	// Optimal: search completed; the incumbent is proven optimal.
	Optimal Status = iota
	// Feasible: a budget was exhausted; the incumbent is feasible but not
	// proven optimal.
	Feasible
	// Infeasible: search completed without finding any integer solution.
	Infeasible
	// Limit: a budget was exhausted before any integer solution was found.
	Limit

	// numStatus is a sentinel for the names table below: add new statuses
	// above it and name them in statusNames, or the exhaustiveness test
	// fails the build's test run.
	numStatus
)

// statusNames is indexed by Status; the fixed size ties it to numStatus so
// a new status cannot ship without a name.
var statusNames = [numStatus]string{
	Optimal:    "optimal",
	Feasible:   "feasible",
	Infeasible: "infeasible",
	Limit:      "limit",
}

// String implements fmt.Stringer.
func (s Status) String() string {
	if s < 0 || s >= numStatus {
		return "unknown"
	}
	return statusNames[s]
}

// Model is a MILP: an LP plus integrality requirements.
type Model struct {
	LP *lp.Model
	// Ints lists variables that must take integer values.
	Ints []int
	// Groups are disjoint sets of binary variables with an "exactly one"
	// constraint (the caller must also have added the Σ=1 row to LP).
	// They enable group-splitting branching.
	Groups [][]int
}

// NewModel wraps an LP model.
func NewModel(m *lp.Model) *Model { return &Model{LP: m} }

// Reset re-targets the wrapper at an LP model and clears the integrality
// marks, retaining group storage so a pooled wrapper can be rebuilt
// without allocating.
func (m *Model) Reset(lpm *lp.Model) {
	m.LP = lpm
	m.Ints = m.Ints[:0]
	m.Groups = m.Groups[:0]
}

// MarkInt requires variable j to be integral.
func (m *Model) MarkInt(j int) { m.Ints = append(m.Ints, j) }

// AddGroup registers an exactly-one binary group for branching and marks
// its members integral. The group is copied; after a Reset, freed group
// slices are reused in place.
func (m *Model) AddGroup(vars []int) {
	var g []int
	if len(m.Groups) < cap(m.Groups) {
		m.Groups = m.Groups[:len(m.Groups)+1]
		g = append(m.Groups[len(m.Groups)-1][:0], vars...)
	} else {
		g = append([]int(nil), vars...)
		m.Groups = append(m.Groups, nil)
	}
	m.Groups[len(m.Groups)-1] = g
	m.Ints = append(m.Ints, g...)
}

// Params bounds the search.
type Params struct {
	// MaxNodes caps branch-and-bound nodes (0: 100000).
	MaxNodes int
	// TimeLimit caps wall time (0: none).
	TimeLimit time.Duration
	// Incumbent, when non-nil, is a feasible integral starting solution
	// with objective IncumbentObj; it seeds pruning.
	Incumbent    []float64
	IncumbentObj float64
	// Rounder, when non-nil, attempts to repair a fractional LP solution
	// into a feasible integral one, returning the repaired vector, its
	// true objective, and ok. Used as a primal heuristic at every node.
	Rounder func(x []float64) ([]float64, float64, bool)
	// Scratch, when non-nil, is the LP workspace reused across every node
	// relaxation of this solve (and across solves sharing the arena, e.g.
	// one DistOpt worker's window sequence). nil allocates a private one,
	// so arena reuse within a solve is always on.
	Scratch *lp.Arena
}

// Result is the outcome of a Solve.
type Result struct {
	Status Status
	// Obj and X describe the incumbent (valid unless Status is Infeasible
	// or Limit).
	Obj   float64
	X     []float64
	Nodes int
	// BestBound is the proven lower bound on the optimum.
	BestBound float64
}

type solver struct {
	m        *Model
	p        Params
	deadline time.Time
	hasDL    bool

	bestX   []float64
	bestObj float64
	hasBest bool

	nodes     int
	maxNodes  int
	bestBound float64
	aborted   bool

	scratch *lp.Arena

	// Free lists for per-node scratch. Every branch node used to copy the
	// parent's lo/hi (up to four fresh slices per node) plus a sort buffer
	// and a membership map; pooling them makes node overhead allocation-free
	// after the first few levels. Ownership rule: whoever takes a slice
	// from the pool returns it after its last use (children only read the
	// slices passed to them).
	boundPool [][]float64
	intPool   [][]int

	// Per-solve tables that outlive the Solve (see solveScratch).
	*solveScratch
	// depth is the number of nodes on the DFS path above the current one;
	// it indexes bases.
	depth int
}

// solveScratch holds the solver's tables sized by the model and the tree
// depth. They outlive one Solve through solveScratches, so a worker solving
// window after window stops allocating them once it has seen its largest
// model and deepest tree. Every entry is written before it is read, so
// reuse never changes a result. (The per-node bound copies stay per solve:
// kept across solves they held enough memory to show in peak RSS.)
type solveScratch struct {
	inGroup []int // var -> group index or -1
	// bases[d] holds the optimal LP basis of the node being branched at
	// DFS depth d: saved before its first child, restored before its
	// second (restoreParent). Every node at that depth reuses the one
	// snapshot.
	bases []lp.Basis
}

var solveScratches = sync.Pool{New: func() any { return new(solveScratch) }}

// getBounds returns a pooled copy of src.
func (s *solver) getBounds(src []float64) []float64 {
	n := len(s.boundPool)
	if n == 0 {
		return append([]float64(nil), src...)
	}
	b := s.boundPool[n-1]
	s.boundPool = s.boundPool[:n-1]
	if cap(b) < len(src) {
		return append(b[:0], src...)
	}
	b = b[:len(src)]
	copy(b, src)
	return b
}

// putBounds returns slices taken with getBounds to the pool (nils are
// ignored, so conditionally-taken copies release unconditionally).
func (s *solver) putBounds(bs ...[]float64) {
	for _, b := range bs {
		if b != nil {
			s.boundPool = append(s.boundPool, b)
		}
	}
}

// getInts returns a pooled empty int slice with at least the given capacity.
func (s *solver) getInts(capHint int) []int {
	n := len(s.intPool)
	if n == 0 {
		return make([]int, 0, capHint)
	}
	b := s.intPool[n-1]
	s.intPool = s.intPool[:n-1]
	return b[:0]
}

func (s *solver) putInts(b []int) { s.intPool = append(s.intPool, b) }

// Solve runs branch and bound.
func Solve(m *Model, p Params) Result {
	s := &solver{m: m, p: p, solveScratch: solveScratches.Get().(*solveScratch)}
	defer solveScratches.Put(s.solveScratch)
	s.maxNodes = p.MaxNodes
	if s.maxNodes == 0 {
		s.maxNodes = 100000
	}
	s.p = p
	if p.TimeLimit > 0 {
		s.deadline = time.Now().Add(p.TimeLimit)
		s.hasDL = true
	}
	s.inGroup = slices.Grow(s.inGroup[:0], m.LP.NumVars())[:m.LP.NumVars()]
	for j := range s.inGroup {
		s.inGroup[j] = -1
	}
	for gi, g := range m.Groups {
		for _, j := range g {
			s.inGroup[j] = gi
		}
	}
	if p.Incumbent != nil {
		s.bestX = append([]float64(nil), p.Incumbent...)
		s.bestObj = p.IncumbentObj
		s.hasBest = true
	}
	s.bestBound = math.Inf(-1)
	s.scratch = p.Scratch
	if s.scratch == nil {
		s.scratch = lp.NewArena()
	}
	if s.hasDL {
		// Interrupt long individual relaxation solves too (a big window's
		// root LP can exceed the whole time budget), not just the
		// between-node checks in branch.
		s.scratch.SetDeadline(s.deadline)
		defer s.scratch.SetDeadline(time.Time{})
	}

	lo, hi := m.LP.Bounds()
	rootBound := s.branch(lo, hi, p.Incumbent, true)
	if !s.aborted {
		s.bestBound = rootBound
	}

	switch {
	case s.hasBest && !s.aborted:
		return Result{Status: Optimal, Obj: s.bestObj, X: s.bestX, Nodes: s.nodes, BestBound: s.bestBound}
	case s.hasBest:
		return Result{Status: Feasible, Obj: s.bestObj, X: s.bestX, Nodes: s.nodes, BestBound: s.bestBound}
	case !s.aborted:
		return Result{Status: Infeasible, Nodes: s.nodes, BestBound: s.bestBound}
	default:
		return Result{Status: Limit, Nodes: s.nodes, BestBound: s.bestBound}
	}
}

// branch explores the subproblem with the given bounds and returns its
// proven lower bound (+Inf when pruned infeasible). The node relaxation
// warm starts through the dual simplex from the arena's basis, which for
// either child is its parent's optimal basis: the first child solves
// right after the parent, and the second child's basis is restored from
// the snapshot branch saves before branching (restoreParent). hint is the
// cold path's starting point: the root uses the caller's incumbent,
// children their parent's LP optimum, which is near-feasible for the
// child's slightly tightened bounds. root marks the root node for bound
// bookkeeping.
func (s *solver) branch(lo, hi, hint []float64, root bool) float64 {
	if s.aborted {
		return math.Inf(-1)
	}
	if s.nodes >= s.maxNodes || (s.hasDL && time.Now().After(s.deadline)) {
		s.aborted = true
		return math.Inf(-1)
	}
	s.nodes++

	sol := s.m.LP.SolveWithScratch(lo, hi, hint, s.scratch)
	switch sol.Status {
	case lp.Infeasible:
		return math.Inf(1)
	case lp.Unbounded:
		// An unbounded relaxation of our bounded formulations signals a
		// modelling bug; treat as unresolvable.
		s.aborted = true
		return math.Inf(-1)
	case lp.IterLimit:
		// Could not resolve the relaxation: conservatively keep the
		// incumbent and stop pursuing this node without claiming a bound.
		s.aborted = true
		return math.Inf(-1)
	}
	if s.hasBest && sol.Obj >= s.bestObj-absGap {
		return sol.Obj // pruned by bound
	}

	// Reduced-cost fixing: a nonbasic integer variable whose reduced cost
	// exceeds the incumbent gap cannot leave its bound in any solution that
	// improves the incumbent by more than absGap, so it is fixed there for
	// the whole subtree. With a near-optimal incumbent this collapses most
	// exactly-one groups to a handful of candidates and is the main reason
	// window searches finish instead of timing out.
	if s.hasBest && sol.RedCost != nil {
		gap := s.bestObj - absGap - sol.Obj
		var lo2, hi2 []float64
		for _, j := range s.m.Ints {
			if lo[j] >= hi[j] {
				continue
			}
			d := sol.RedCost[j]
			if d > gap && sol.X[j] <= lo[j]+intTol {
				if hi2 == nil {
					hi2 = s.getBounds(hi)
				}
				hi2[j] = lo[j]
			} else if -d > gap && sol.X[j] >= hi[j]-intTol {
				if lo2 == nil {
					lo2 = s.getBounds(lo)
				}
				lo2[j] = hi[j]
			}
		}
		if lo2 != nil {
			lo = lo2
		}
		if hi2 != nil {
			hi = hi2
		}
		defer s.putBounds(lo2, hi2)
	}

	fracVar := s.mostFractional(sol.X)
	if fracVar == -1 {
		// Integral: new incumbent.
		if !s.hasBest || sol.Obj < s.bestObj {
			s.bestObj = sol.Obj
			s.bestX = append(s.bestX[:0], sol.X...)
			s.hasBest = true
		}
		return sol.Obj
	}

	// Primal heuristic: try to repair the fractional solution.
	if s.p.Rounder != nil {
		if rx, robj, ok := s.p.Rounder(sol.X); ok {
			if !s.hasBest || robj < s.bestObj {
				s.bestObj = robj
				s.bestX = append(s.bestX[:0], rx...)
				s.hasBest = true
			}
		}
	}

	if s.depth == len(s.bases) {
		s.bases = append(s.bases, lp.Basis{})
	}
	s.scratch.SaveBasis(&s.bases[s.depth])
	s.depth++
	var b1, b2 float64
	if gi := s.inGroup[fracVar]; gi >= 0 {
		b1, b2 = s.branchGroup(lo, hi, gi, sol.X)
	} else {
		b1, b2 = s.branchVar(lo, hi, fracVar, sol.X)
	}
	s.depth--
	return math.Min(b1, b2)
}

// restoreParent rewinds the arena to the optimal basis of the node being
// branched (saved by branch) before its second child. Without it the
// second child would warm start from whatever node of the first child's
// subtree was solved last, typically its deepest, which costs over three
// times the pivots of a start from the parent.
func (s *solver) restoreParent() { s.scratch.RestoreBasis(&s.bases[s.depth-1]) }

// mostFractional returns the integer variable farthest from integrality,
// or -1 if all are integral.
func (s *solver) mostFractional(x []float64) int {
	best := -1
	bestDist := intTol
	for _, j := range s.m.Ints {
		v := x[j]
		dist := math.Abs(v - math.Round(v))
		if dist > bestDist {
			bestDist = dist
			best = j
		}
	}
	return best
}

// branchVar performs the classic floor/ceil dichotomy on variable j. x is
// the parent relaxation's solution, the children's cold-start hint. The
// up-branch warm starts from the parent's basis, restored after the
// down-branch's subtree.
func (s *solver) branchVar(lo, hi []float64, j int, x []float64) (float64, float64) {
	fl := math.Floor(x[j])

	hi2 := s.getBounds(hi)
	hi2[j] = fl
	var bDown float64 = math.Inf(1)
	if lo[j] <= fl {
		bDown = s.branch(lo, hi2, x, false)
	}
	s.putBounds(hi2)
	s.restoreParent()

	lo2 := s.getBounds(lo)
	lo2[j] = fl + 1
	var bUp float64 = math.Inf(1)
	if hi[j] >= fl+1 {
		bUp = s.branch(lo2, hi, x, false)
	}
	s.putBounds(lo2)
	return bDown, bUp
}

// branchGroup splits an exactly-one group into two halves by LP value and
// explores "winner in S" and "winner in complement" children. Fixed-to-zero
// members (hi already 0) stay fixed in both children. Both children warm
// start from the parent's optimal basis: child B's is restored after child
// A's subtree.
func (s *solver) branchGroup(lo, hi []float64, gi int, x []float64) (float64, float64) {
	// Active members sorted by LP value descending; S = active[:cut] holds
	// at least half the LP mass, which balances the children.
	active := s.getInts(len(s.m.Groups[gi]))
	for _, j := range s.m.Groups[gi] {
		if hi[j] > 0.5 {
			active = append(active, j)
		}
	}
	for i := 0; i < len(active); i++ {
		for k := i + 1; k < len(active); k++ {
			if x[active[k]] > x[active[i]] {
				active[i], active[k] = active[k], active[i]
			}
		}
	}
	var mass, total float64
	for _, j := range active {
		total += x[j]
	}
	cut := 0
	for cut < len(active)-1 {
		mass += x[active[cut]]
		cut++
		if mass >= total/2 {
			break
		}
	}

	// Child A: winner inside S (zero the complement).
	hiA := s.getBounds(hi)
	for _, j := range active[cut:] {
		hiA[j] = 0
	}
	bA := s.branch(lo, hiA, x, false)

	// Child B: winner outside S (zero S). hiA is dead, so recycle it as the
	// child-B bounds.
	hiB := hiA
	copy(hiB, hi)
	for _, j := range active[:cut] {
		hiB[j] = 0
	}
	s.restoreParent()
	bB := s.branch(lo, hiB, x, false)
	s.putBounds(hiB)
	s.putInts(active)
	return bA, bB
}
