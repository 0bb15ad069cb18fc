package core

import (
	"math"

	"vm1place/internal/lp"
	"vm1place/internal/milp"
	"vm1place/internal/objective"
)

// objective evaluates the window-local objective of an assignment
// (candidate index per movable cell): Σ wn − Σ αn·#pairs − ε·Σ surplus.
// It is exactly the MILP objective restricted to this window's nets and
// (pruned) pairs, so MILP incumbents and greedy moves are comparable.
func (w *window) objective(assign []int) float64 {
	total := 0.0
	for _, wn := range w.nets {
		total += float64(w.netWL(wn, assign))
	}
	for _, pr := range w.pairs {
		hit, over := w.pairState(pr, assign)
		if hit {
			total -= pr.alpha
			total -= Epsilon * float64(over)
		}
	}
	return total
}

// netWL computes a net's HPWL under an assignment.
func (w *window) netWL(wn *winNet, assign []int) int64 {
	var xlo, xhi, ylo, yhi int64
	init := false
	add := func(x, y int64) {
		if !init {
			xlo, xhi, ylo, yhi = x, x, y, y
			init = true
			return
		}
		if x < xlo {
			xlo = x
		}
		if x > xhi {
			xhi = x
		}
		if y < ylo {
			ylo = y
		}
		if y > yhi {
			yhi = y
		}
	}
	if wn.hasFixed {
		add(wn.fxMin, wn.fyMin)
		add(wn.fxMax, wn.fyMax)
	}
	for _, mp := range wn.movable {
		k := assign[mp.cell]
		add(mp.CenterX[k], mp.CenterY[k])
	}
	if !init {
		return 0
	}
	return (xhi - xlo) + (yhi - ylo)
}

// pinAt returns the geometry index of a pin under an assignment (0 for
// fixed pins).
func pinAt(p winPin, assign []int) int {
	if p.cell < 0 {
		return 0
	}
	return assign[p.cell]
}

// pairState evaluates a pair under an assignment.
func (w *window) pairState(pr *winPair, assign []int) (bool, int64) {
	return w.rule.eval(pr.p.At(pinAt(pr.p, assign)), pr.q.At(pinAt(pr.q, assign)))
}

// feasibleAssign reports whether an assignment is overlap-free within the
// window (fixed blocks included).
func (w *window) feasibleAssign(assign []int) bool {
	sv := w.solver()
	occ := grown(sv.occ, len(w.blocked))
	sv.occ = occ
	copy(occ, w.blocked)
	for ci, i := range w.movable {
		cd := w.cand[ci][assign[ci]]
		wi := w.p.Design.Insts[i].Master.WidthSites
		for s := cd.site; s < cd.site+wi; s++ {
			idx := w.occIdx(cd.row, s)
			if occ[idx] {
				return false
			}
			occ[idx] = true
		}
	}
	return true
}

// milpWork is the work of window MILPs: the model rows built, the
// branch-and-bound nodes solved, and how many MILPs stopped at MaxNodes or
// their deadline (capped). A greedy-only window adds none.
type milpWork struct {
	rows, nodes, capped int
}

// Windows with more than maxMILPCells movable cells or maxMILPBins
// candidates use the greedy coordinate-descent fallback instead of the
// MILP. The benchmark workloads' windows hold at most 42 movable cells,
// and those of the paper's (20 µm, 4, 1) point at most 38.
const (
	maxMILPCells = 100
	maxMILPBins  = 6000
)

// solve optimizes the window and returns an improved assignment, or nil
// when the input placement is retained, with the MILP's work. Windows
// beyond the MILP size budget fall back to the greedy hill-climbing
// heuristic.
func (w *window) solve() ([]int, milpWork) {
	if len(w.movable) == 0 {
		return nil, milpWork{}
	}
	nBin := 0
	for _, cs := range w.cand {
		nBin += len(cs)
	}
	if len(w.movable) > maxMILPCells || nBin > maxMILPBins {
		return w.solveGreedy(), milpWork{}
	}
	return w.solveMILP()
}

// buildModel assembles the window MILP (Section 3 of the paper, plus the
// pair support rows of DESIGN.md §4d) and returns the LP, the MILP
// wrapper, the λ variable ids per cell and candidate, and the constant
// objective offset K (net bounds that no candidate choice can move, kept
// out of the model; modelObj = windowObj − K). It emits only the HPWL
// and occupancy rows that can bind: a row that a variable bound or
// another row implies is left out (DESIGN.md §4d), which changes neither
// the integer feasible set nor the LP relaxation. The models and every
// assembly buffer come from the window's solve workspace, so a
// steady-state build allocates nothing: AddRow copies its terms, which
// makes the single reused row buffer safe.
func (w *window) buildModel() (*lp.Model, *milp.Model, [][]int, float64) {
	sv := w.solver()
	t := w.p.Tech
	m, mm := sv.models()
	inf := math.Inf(1)
	gammaH := float64(int64(w.rule.rows) * t.RowHeight)

	// λ variables, one exactly-one group per cell (Constraints 5-8 in SCP
	// form).
	lambda := grown(sv.lambda, len(w.movable))
	sv.lamSlab = sv.lamSlab[:0]
	tb := sv.tbuf[:0]
	for ci, cs := range w.cand {
		start := len(sv.lamSlab)
		tb = tb[:0]
		for range cs {
			v := m.AddVar(0, 1, 0, "l")
			sv.lamSlab = append(sv.lamSlab, v)
			tb = append(tb, lp.Term{Var: v, Coef: 1})
		}
		lambda[ci] = sv.lamSlab[start:len(sv.lamSlab):len(sv.lamSlab)]
		m.AddRow(lp.EQ, 1, tb...)
		mm.AddGroup(lambda[ci])
	}
	sv.lambda = lambda

	// Site occupancy (Constraint 9): each window site holds at most one
	// candidate footprint. The buckets are dense over window occupancy
	// indices and walked in ascending order, because row order steers
	// simplex pivoting and must not vary run to run. A site's row is
	// emitted only when its candidate set is a maximal clique: the row of
	// a set contained in another site's set is implied by that site's
	// row. Footprints are site intervals within one window row, so a
	// contained set is contained in a neighbour's: the walk drops a set
	// contained in its right neighbour's or strictly contained in the
	// nearest different set to its left, and a run of equal sets keeps
	// its last row.
	occT := resliceAll(sv.occTerms, len(w.blocked))
	for ci, i := range w.movable {
		wi := w.p.Design.Insts[i].Master.WidthSites
		for k, cd := range w.cand[ci] {
			for s := cd.site; s < cd.site+wi; s++ {
				idx := w.occIdx(cd.row, s)
				occT[idx] = append(occT[idx], lp.Term{Var: lambda[ci][k], Coef: 1})
			}
		}
	}
	nSites := w.s1 - w.s0
	for r := 0; r < len(occT); r += nSites {
		row := occT[r : r+nSites]
		inLeft := false // strictly inside the nearest different set to the left
		for s, terms := range row {
			if s > 0 {
				prev := row[s-1]
				if !termsSubset(terms, prev) {
					inLeft = false
				} else if len(terms) < len(prev) {
					inLeft = true
				}
			}
			if len(terms) > 1 && !inLeft && (s+1 == nSites || !termsSubset(terms, row[s+1])) {
				m.AddRow(lp.LE, 1, terms...)
			}
		}
	}
	sv.occTerms = occT

	// Net bound variables and rows (Constraints 2-3; wn folded into the
	// objective coefficients of the two bound variables per axis),
	// emitted only where they can bind. vmax's lower bound lo is the
	// largest of the fixed terminals' maximum and every movable pin's
	// smallest candidate coordinate; vmin's upper bound hi is the smallest
	// of the fixed minimum and every pin's largest coordinate. Both hold
	// at every assignment, so:
	//   - a pin whose largest coordinate is at most lo never raises the
	//     net's maximum above lo, and its max-side row vmax − Σ c_k λ_k ≥ 0
	//     is implied by the bound; likewise its min-side row when its
	//     smallest coordinate is at least hi. Neither is emitted;
	//   - a side left with no row is constant, vmax = lo or vmin = hi,
	//     and is accumulated into the offset K instead of the model.
	// The bounds also let the crash basis start feasible.
	constK := 0.0
	for _, wn := range w.nets {
		for axi := 0; axi < 2; axi++ {
			lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
			if wn.hasFixed {
				lo, hi = wn.fxMax, wn.fxMin
				if axi == 1 {
					lo, hi = wn.fyMax, wn.fyMin
				}
			}
			ext := sv.ext[:0]
			for _, mp := range wn.movable {
				cLo, cHi := minMax64(axisVals(mp, axi))
				ext = append(ext, [2]int64{cLo, cHi})
				lo, hi = max(lo, cLo), min(hi, cHi)
			}
			sv.ext = ext
			anyUp, anyDown := false, false
			for _, e := range ext {
				anyUp, anyDown = anyUp || e[1] > lo, anyDown || e[0] < hi
			}
			vmax, vmin := -1, -1
			if anyUp {
				vmax = m.AddVar(float64(lo), inf, 1, "max")
			} else {
				constK += float64(lo)
			}
			if anyDown {
				vmin = m.AddVar(-inf, float64(hi), -1, "min")
			} else {
				constK -= float64(hi)
			}
			for i, mp := range wn.movable {
				up, down := ext[i][1] > lo, ext[i][0] < hi
				if !up && !down {
					continue
				}
				tb = tb[:0]
				tb, _ = objective.AppendPin(tb, pinView(mp, lambda), axisVals(mp, axi), -1)
				tb = append(tb, lp.Term{})
				if up {
					tb[len(tb)-1] = lp.Term{Var: vmax, Coef: 1}
					m.AddRow(lp.GE, 0, tb...)
				}
				if down {
					tb[len(tb)-1] = lp.Term{Var: vmin, Coef: 1}
					m.AddRow(lp.LE, 0, tb...)
				}
			}
		}
	}

	// Pair variables and rows. The caller adds the binary reward variable
	// (objective coefficient -αn) and the objective emits its
	// linearization rows; core then adds the pair's support rows,
	// d − Σ_{k∈S_p} λ_pk ≤ 0 for each movable pin p whose support S_p
	// (buildPairs) is partial. They hold at every integer point — with
	// d = 1 the chosen candidates realize the pair, so each lies in its
	// pin's support — but they deny the relaxation a fractional d that
	// the big-G rows leave almost free, so up-branches on d stop being
	// infeasible. Emission order per pair is fixed by the implementation;
	// pair order is the deterministic buildPairs order.
	em := objective.Emit{M: m, MM: mm, GammaH: gammaH}
	for _, pr := range w.pairs {
		d := m.AddVar(0, 1, -pr.alpha, "d")
		mm.MarkInt(d)
		tb = w.rule.obj.EmitPair(em, w.rule.w, d, pinView(pr.p, lambda), pinView(pr.q, lambda), tb)
		tb = addSupportRow(m, tb, d, pr.p, pr.supP, lambda)
		tb = addSupportRow(m, tb, d, pr.q, pr.supQ, lambda)
	}
	sv.tbuf = tb

	return m, mm, lambda, constK
}

// addSupportRow adds d − Σ_{k∈sup} λ_pk ≤ 0 for pin p, unless sup is nil
// (p is fixed, or its exactly-one row already implies the row).
func addSupportRow(m *lp.Model, tb []lp.Term, d int, p winPin, sup []int, lambda [][]int) []lp.Term {
	if sup == nil {
		return tb
	}
	tb = append(tb[:0], lp.Term{Var: d, Coef: 1})
	for _, k := range sup {
		tb = append(tb, lp.Term{Var: lambda[p.cell][k], Coef: -1})
	}
	m.AddRow(lp.LE, 0, tb...)
	return tb
}

// termsSubset reports whether every variable of a is in b. Both list
// distinct variables in ascending order.
func termsSubset(a, b []lp.Term) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, t := range a {
		for j < len(b) && b[j].Var < t.Var {
			j++
		}
		if j == len(b) || b[j].Var != t.Var {
			return false
		}
		j++
	}
	return true
}

// axisVals selects a pin's candidate coordinates for axis 0 (x) or 1 (y).
func axisVals(mp winPin, axi int) []int64 {
	if axi == 0 {
		return mp.CenterX
	}
	return mp.CenterY
}

// solveMILP builds and solves the paper's window MILP.
func (w *window) solveMILP() ([]int, milpWork) {
	sv := w.solver()
	m, mm, lambda, constK := w.buildModel()

	// Incumbent: the greedy coordinate-descent solution when it improves
	// on the input placement, else the input placement itself. A near-
	// optimal incumbent tightens branch-and-bound pruning from the first
	// node, and its vertex doubles as the warm-start hint, which shortens
	// the root relaxation's simplex path. The MILP works in model space
	// (window objective minus the constant K), so all values handed to
	// the solver are shifted consistently.
	curObj := w.objective(w.curCand) - constK
	start := w.curCand
	if g := w.solveGreedy(); g != nil {
		if gObj := w.objective(g) - constK; gObj < curObj {
			start, curObj = g, gObj
		}
	}
	incumbent := grown(sv.incumbent, m.NumVars())
	sv.incumbent = incumbent
	clear(incumbent)
	for ci, k := range start {
		incumbent[lambda[ci][k]] = 1
	}

	decodeInto := func(assign []int, x []float64) {
		for ci := range w.movable {
			best, bestV := 0, -1.0
			for k, v := range lambda[ci] {
				if x[v] > bestV {
					bestV = x[v]
					best = k
				}
			}
			assign[ci] = best
		}
	}

	// The rounder's buffers are reused across calls: the branch-and-bound
	// solver copies both the incumbent vector it keeps and any improving
	// rounder result, so handing it the same backing array every time is
	// safe.
	rounder := func(x []float64) ([]float64, float64, bool) {
		assign := grown(sv.assign, len(w.movable))
		sv.assign = assign
		decodeInto(assign, x)
		if !w.repair(assign, x, lambda) {
			return nil, 0, false
		}
		vec := grown(sv.vec, m.NumVars())
		sv.vec = vec
		clear(vec)
		for ci, k := range assign {
			vec[lambda[ci][k]] = 1
		}
		return vec, w.objective(assign) - constK, true
	}

	// fallback is what to return when the MILP cannot beat the incumbent:
	// the greedy improvement if there was one, else nil (keep the input).
	var fallback []int
	if &start[0] != &w.curCand[0] {
		fallback = start
	}

	res := milp.Solve(mm, milp.Params{
		MaxNodes:     w.prm.MaxNodes,
		TimeLimit:    w.prm.TimeLimit,
		Incumbent:    incumbent,
		IncumbentObj: curObj,
		Rounder:      rounder,
		Scratch:      sv.arena,
	})
	work := milpWork{rows: m.NumRows(), nodes: res.Nodes}
	if res.Status == milp.Feasible || res.Status == milp.Limit {
		work.capped = 1
	}
	if res.X == nil || res.Obj >= curObj-1e-6 {
		return fallback, work
	}
	assign := make([]int, len(w.movable))
	decodeInto(assign, res.X)
	if !w.feasibleAssign(assign) {
		// Should not happen for MILP-feasible solutions; keep the best
		// known assignment rather than corrupt the placement.
		return fallback, work
	}
	if w.objective(assign)-constK >= curObj-1e-9 {
		return fallback, work
	}
	return assign, work
}

// repair greedily fixes occupancy conflicts in a decoded assignment by
// demoting cells to their next-best candidates (by LP value), finally their
// current position. Returns false if no conflict-free completion is found.
func (w *window) repair(assign []int, x []float64, lambda [][]int) bool {
	sv := w.solver()
	occ := grown(sv.occ, len(w.blocked))
	sv.occ = occ
	copy(occ, w.blocked)
	place := func(ci, k int, commit bool) bool {
		cd := w.cand[ci][k]
		wi := w.p.Design.Insts[w.movable[ci]].Master.WidthSites
		for s := cd.site; s < cd.site+wi; s++ {
			if occ[w.occIdx(cd.row, s)] {
				return false
			}
		}
		if commit {
			for s := cd.site; s < cd.site+wi; s++ {
				occ[w.occIdx(cd.row, s)] = true
			}
		}
		return true
	}
	for ci := range w.movable {
		if place(ci, assign[ci], true) {
			continue
		}
		// Demote: candidates by LP value descending.
		order := grown(sv.order, len(w.cand[ci]))
		sv.order = order
		for k := range order {
			order[k] = k
		}
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				if x[lambda[ci][order[j]]] > x[lambda[ci][order[i]]] {
					order[i], order[j] = order[j], order[i]
				}
			}
		}
		done := false
		for _, k := range order {
			if place(ci, k, true) {
				assign[ci] = k
				done = true
				break
			}
		}
		if !done {
			return false
		}
	}
	return true
}

// solveGreedy is the large-window fallback: coordinate-descent over cells,
// each taking its best feasible candidate under the exact window objective.
// The returned assignment is freshly allocated (it outlives the window's
// pooled storage when used as a move source); all working state comes from
// the solve workspace.
func (w *window) solveGreedy() []int {
	sv := w.solver()
	assign := append([]int(nil), w.curCand...)
	occ := grown(sv.occ, len(w.blocked))
	sv.occ = occ
	copy(occ, w.blocked)
	mark := func(ci int, on bool) {
		cd := w.cand[ci][assign[ci]]
		wi := w.p.Design.Insts[w.movable[ci]].Master.WidthSites
		for s := cd.site; s < cd.site+wi; s++ {
			occ[w.occIdx(cd.row, s)] = on
		}
	}
	free := func(ci, k int) bool {
		cd := w.cand[ci][k]
		wi := w.p.Design.Insts[w.movable[ci]].Master.WidthSites
		for s := cd.site; s < cd.site+wi; s++ {
			if occ[w.occIdx(cd.row, s)] {
				return false
			}
		}
		return true
	}
	for ci := range w.movable {
		mark(ci, true)
	}

	// Per-cell objective slices for fast deltas. Membership dedup uses a
	// stamp array (stamp[cell] == net index + 1) instead of a per-net map.
	netsOf := resliceAll(sv.netsOf, len(w.movable))
	pairsOf := resliceAll(sv.pairsOf, len(w.movable))
	stamp := grown(sv.stamp, len(w.movable))
	clear(stamp)
	for nidx, wn := range w.nets {
		for _, mp := range wn.movable {
			if stamp[mp.cell] != nidx+1 {
				netsOf[mp.cell] = append(netsOf[mp.cell], wn)
				stamp[mp.cell] = nidx + 1
			}
		}
	}
	for _, pr := range w.pairs {
		if pr.p.cell >= 0 {
			pairsOf[pr.p.cell] = append(pairsOf[pr.p.cell], pr)
		}
		if pr.q.cell >= 0 && pr.q.cell != pr.p.cell {
			pairsOf[pr.q.cell] = append(pairsOf[pr.q.cell], pr)
		}
	}
	sv.netsOf, sv.pairsOf, sv.stamp = netsOf, pairsOf, stamp
	localObj := func(ci int) float64 {
		v := 0.0
		for _, wn := range netsOf[ci] {
			v += float64(w.netWL(wn, assign))
		}
		for _, pr := range pairsOf[ci] {
			if hit, over := w.pairState(pr, assign); hit {
				v -= pr.alpha + Epsilon*float64(over)
			}
		}
		return v
	}

	improvedAny := false
	for pass := 0; pass < 3; pass++ {
		improved := false
		for ci := range w.movable {
			cur := assign[ci]
			mark(ci, false)
			bestK, bestV := cur, localObj(ci)
			for k := range w.cand[ci] {
				if k == cur || !free(ci, k) {
					continue
				}
				assign[ci] = k
				if v := localObj(ci); v < bestV-1e-9 {
					bestK, bestV = k, v
				}
			}
			assign[ci] = bestK
			mark(ci, true)
			if bestK != cur {
				improved = true
				improvedAny = true
			}
		}
		if !improved {
			break
		}
	}
	if !improvedAny {
		return nil
	}
	return assign
}
