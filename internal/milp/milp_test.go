package milp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"vm1place/internal/lp"
)

const tol = 1e-5

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary.
	// (min negated): candidates: a+b (w7 no), a+c (w5, v17), b+c (w6, v20),
	// a (10), b (13), c (7). Best = b+c = 20.
	m := lp.NewModel()
	a := m.AddVar(0, 1, -10, "a")
	b := m.AddVar(0, 1, -13, "b")
	c := m.AddVar(0, 1, -7, "c")
	m.AddRow(lp.LE, 6, lp.Term{Var: a, Coef: 3}, lp.Term{Var: b, Coef: 4}, lp.Term{Var: c, Coef: 2})
	mm := NewModel(m)
	mm.MarkInt(a)
	mm.MarkInt(b)
	mm.MarkInt(c)
	res := Solve(mm, Params{})
	if res.Status != Optimal {
		t.Fatalf("status = %s", res.Status)
	}
	if math.Abs(res.Obj-(-20)) > tol {
		t.Errorf("obj = %f, want -20", res.Obj)
	}
	if math.Round(res.X[a]) != 0 || math.Round(res.X[b]) != 1 || math.Round(res.X[c]) != 1 {
		t.Errorf("x = %v, want (0,1,1)", res.X)
	}
}

func TestIntegerGeneral(t *testing.T) {
	// min -x - y s.t. 2x + 3y <= 12, x <= 4, y <= 3, integers.
	// LP opt is fractional; ILP best: try x=4: 8+3y<=12 -> y=1 -> obj -5;
	// x=3: 6+3y<=12 -> y=2 -> -5; x=1,y=3: 2+9=11<=12 -> -4... best -5.
	m := lp.NewModel()
	x := m.AddVar(0, 4, -1, "x")
	y := m.AddVar(0, 3, -1, "y")
	m.AddRow(lp.LE, 12, lp.Term{Var: x, Coef: 2}, lp.Term{Var: y, Coef: 3})
	mm := NewModel(m)
	mm.MarkInt(x)
	mm.MarkInt(y)
	res := Solve(mm, Params{})
	if res.Status != Optimal || math.Abs(res.Obj-(-5)) > tol {
		t.Fatalf("res = %+v, want obj -5", res)
	}
}

func TestInfeasibleMILP(t *testing.T) {
	m := lp.NewModel()
	x := m.AddVar(0, 1, 1, "x")
	y := m.AddVar(0, 1, 1, "y")
	// x + y = 1 and x + y = 2 simultaneously: infeasible even as LP.
	m.AddRow(lp.EQ, 1, lp.Term{Var: x, Coef: 1}, lp.Term{Var: y, Coef: 1})
	m.AddRow(lp.EQ, 2, lp.Term{Var: x, Coef: 1}, lp.Term{Var: y, Coef: 1})
	mm := NewModel(m)
	mm.MarkInt(x)
	mm.MarkInt(y)
	res := Solve(mm, Params{})
	if res.Status != Infeasible {
		t.Fatalf("status = %s, want infeasible", res.Status)
	}
}

func TestIntegralityInfeasible(t *testing.T) {
	// 2x = 1 with x binary: LP feasible (x=0.5) but no integer solution.
	m := lp.NewModel()
	x := m.AddVar(0, 1, 0, "x")
	m.AddRow(lp.EQ, 1, lp.Term{Var: x, Coef: 2})
	mm := NewModel(m)
	mm.MarkInt(x)
	res := Solve(mm, Params{})
	if res.Status != Infeasible {
		t.Fatalf("status = %s, want infeasible", res.Status)
	}
}

func TestGroupBranching(t *testing.T) {
	// Two exactly-one groups; coupling constraint forbids the cheap combo.
	m := lp.NewModel()
	a0 := m.AddVar(0, 1, 1, "a0")
	a1 := m.AddVar(0, 1, 5, "a1")
	b0 := m.AddVar(0, 1, 1, "b0")
	b1 := m.AddVar(0, 1, 4, "b1")
	m.AddRow(lp.EQ, 1, lp.Term{Var: a0, Coef: 1}, lp.Term{Var: a1, Coef: 1})
	m.AddRow(lp.EQ, 1, lp.Term{Var: b0, Coef: 1}, lp.Term{Var: b1, Coef: 1})
	// a0 + b0 <= 1: can't take both cheap options.
	m.AddRow(lp.LE, 1, lp.Term{Var: a0, Coef: 1}, lp.Term{Var: b0, Coef: 1})
	mm := NewModel(m)
	mm.AddGroup([]int{a0, a1})
	mm.AddGroup([]int{b0, b1})
	res := Solve(mm, Params{})
	if res.Status != Optimal {
		t.Fatalf("status = %s", res.Status)
	}
	// Best: a0 + b1 = 5 or a1 + b0 = 6 -> 5.
	if math.Abs(res.Obj-5) > tol {
		t.Errorf("obj = %f, want 5", res.Obj)
	}
}

func TestIncumbentPruning(t *testing.T) {
	// With a perfect incumbent and zero budget headroom, the solver should
	// still confirm optimality quickly and not degrade the incumbent.
	m := lp.NewModel()
	x := m.AddVar(0, 1, -3, "x")
	y := m.AddVar(0, 1, -2, "y")
	m.AddRow(lp.LE, 1, lp.Term{Var: x, Coef: 1}, lp.Term{Var: y, Coef: 1})
	mm := NewModel(m)
	mm.MarkInt(x)
	mm.MarkInt(y)
	res := Solve(mm, Params{Incumbent: []float64{1, 0}, IncumbentObj: -3})
	if res.Status != Optimal || math.Abs(res.Obj-(-3)) > tol {
		t.Fatalf("res = %+v, want optimal -3", res)
	}
}

func TestNodeLimit(t *testing.T) {
	// A larger knapsack with MaxNodes=1 must return the seeded incumbent
	// as Feasible (or prove optimality at the root, which small cases may).
	rng := rand.New(rand.NewSource(4))
	m := lp.NewModel()
	n := 20
	vars := make([]int, n)
	terms := make([]lp.Term, n)
	for i := 0; i < n; i++ {
		vars[i] = m.AddVar(0, 1, -float64(1+rng.Intn(20)), "v")
		terms[i] = lp.Term{Var: vars[i], Coef: float64(1 + rng.Intn(10))}
	}
	m.AddRow(lp.LE, 25, terms...)
	mm := NewModel(m)
	for _, v := range vars {
		mm.MarkInt(v)
	}
	zero := make([]float64, n)
	res := Solve(mm, Params{MaxNodes: 1, Incumbent: zero, IncumbentObj: 0})
	if res.Status != Feasible && res.Status != Optimal {
		t.Fatalf("status = %s", res.Status)
	}
	if res.Obj > 0 {
		t.Errorf("incumbent degraded: obj %f > 0", res.Obj)
	}
	if res.Nodes > 1 {
		t.Errorf("nodes = %d, want <= 1", res.Nodes)
	}
}

func TestTimeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := lp.NewModel()
	n := 30
	var terms []lp.Term
	mm := NewModel(m)
	for i := 0; i < n; i++ {
		v := m.AddVar(0, 1, -float64(1+rng.Intn(100)), "v")
		terms = append(terms, lp.Term{Var: v, Coef: float64(1 + rng.Intn(30))})
		mm.MarkInt(v)
	}
	m.AddRow(lp.LE, 70, terms...)
	start := time.Now()
	res := Solve(mm, Params{TimeLimit: time.Millisecond})
	if time.Since(start) > 2*time.Second {
		t.Error("time limit not respected")
	}
	_ = res // any status is acceptable; we only test that it stops
}

func TestRounderHeuristic(t *testing.T) {
	// Rounder returns a known feasible point; with MaxNodes=1 the solver
	// must surface it even though it cannot finish the search.
	m := lp.NewModel()
	x := m.AddVar(0, 1, -2, "x")
	y := m.AddVar(0, 1, -3, "y")
	z := m.AddVar(0, 1, -4, "z")
	m.AddRow(lp.LE, 1.5, lp.Term{Var: x, Coef: 1}, lp.Term{Var: y, Coef: 1}, lp.Term{Var: z, Coef: 1})
	mm := NewModel(m)
	mm.MarkInt(x)
	mm.MarkInt(y)
	mm.MarkInt(z)
	called := false
	rounder := func(frac []float64) ([]float64, float64, bool) {
		called = true
		return []float64{0, 0, 1}, -4, true
	}
	res := Solve(mm, Params{MaxNodes: 1, Rounder: rounder})
	if !called {
		t.Fatal("rounder not invoked")
	}
	if res.Status == Limit || res.Status == Infeasible {
		t.Fatalf("status = %s, want a solution from the rounder", res.Status)
	}
	if res.Obj > -4+tol {
		t.Errorf("obj = %f, want <= -4", res.Obj)
	}
}

// TestRandomBinaryVsBrute cross-checks branch and bound against exhaustive
// enumeration on random binary MILPs.
func TestRandomBinaryVsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(5) // 3..7 binaries
		nRows := 1 + rng.Intn(3)
		c := make([]float64, n)
		for i := range c {
			c[i] = float64(rng.Intn(21) - 10)
		}
		rows := make([][]float64, nRows)
		senses := make([]lp.Sense, nRows)
		rhs := make([]float64, nRows)
		for r := 0; r < nRows; r++ {
			rows[r] = make([]float64, n)
			for i := range rows[r] {
				rows[r][i] = float64(rng.Intn(7) - 3)
			}
			senses[r] = lp.Sense(rng.Intn(2)) // LE or GE (EQ rarely feasible)
			rhs[r] = float64(rng.Intn(9) - 2)
		}

		// Brute force.
		bestObj := math.Inf(1)
		found := false
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			for r := 0; r < nRows && ok; r++ {
				s := 0.0
				for i := 0; i < n; i++ {
					if mask&(1<<i) != 0 {
						s += rows[r][i]
					}
				}
				if senses[r] == lp.LE && s > rhs[r]+1e-9 {
					ok = false
				}
				if senses[r] == lp.GE && s < rhs[r]-1e-9 {
					ok = false
				}
			}
			if !ok {
				continue
			}
			obj := 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					obj += c[i]
				}
			}
			if obj < bestObj {
				bestObj = obj
				found = true
			}
		}

		// MILP.
		m := lp.NewModel()
		vars := make([]int, n)
		for i := 0; i < n; i++ {
			vars[i] = m.AddVar(0, 1, c[i], "v")
		}
		for r := 0; r < nRows; r++ {
			var terms []lp.Term
			for i := 0; i < n; i++ {
				if rows[r][i] != 0 {
					terms = append(terms, lp.Term{Var: vars[i], Coef: rows[r][i]})
				}
			}
			m.AddRow(senses[r], rhs[r], terms...)
		}
		mm := NewModel(m)
		for _, v := range vars {
			mm.MarkInt(v)
		}
		res := Solve(mm, Params{})

		if !found {
			if res.Status != Infeasible {
				t.Fatalf("trial %d: brute infeasible, milp %s obj %f", trial, res.Status, res.Obj)
			}
			continue
		}
		if res.Status != Optimal {
			t.Fatalf("trial %d: milp status %s, brute obj %f", trial, res.Status, bestObj)
		}
		if math.Abs(res.Obj-bestObj) > 1e-4 {
			t.Fatalf("trial %d: milp obj %f != brute %f (c=%v rows=%v senses=%v rhs=%v)",
				trial, res.Obj, bestObj, c, rows, senses, rhs)
		}
	}
}

// TestRandomSCPVsBrute cross-checks group branching on random
// candidate-selection problems shaped like the paper's window MILPs: k
// groups with exactly-one selection, pairwise coupling penalties via
// indicator rows.
func TestRandomSCPVsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 60; trial++ {
		nGroups := 2 + rng.Intn(2) // 2..3 cells
		sizes := make([]int, nGroups)
		for g := range sizes {
			sizes[g] = 2 + rng.Intn(3) // 2..4 candidates
		}
		costs := make([][]float64, nGroups)
		for g := range costs {
			costs[g] = make([]float64, sizes[g])
			for k := range costs[g] {
				costs[g][k] = float64(rng.Intn(15))
			}
		}
		// Conflicts: random pairs (g1,k1,g2,k2) forbidden.
		type conflict struct{ g1, k1, g2, k2 int }
		var conflicts []conflict
		for c := 0; c < 3; c++ {
			g1 := rng.Intn(nGroups)
			g2 := rng.Intn(nGroups)
			if g1 == g2 {
				continue
			}
			conflicts = append(conflicts, conflict{g1, rng.Intn(sizes[g1]), g2, rng.Intn(sizes[g2])})
		}

		// Brute force over all selections.
		sel := make([]int, nGroups)
		bestObj := math.Inf(1)
		found := false
		var visit func(g int)
		visit = func(g int) {
			if g == nGroups {
				for _, cf := range conflicts {
					if sel[cf.g1] == cf.k1 && sel[cf.g2] == cf.k2 {
						return
					}
				}
				obj := 0.0
				for gg, k := range sel {
					obj += costs[gg][k]
				}
				if obj < bestObj {
					bestObj = obj
					found = true
				}
				return
			}
			for k := 0; k < sizes[g]; k++ {
				sel[g] = k
				visit(g + 1)
			}
		}
		visit(0)

		// MILP with groups.
		m := lp.NewModel()
		varOf := make([][]int, nGroups)
		mm := NewModel(m)
		for g := 0; g < nGroups; g++ {
			varOf[g] = make([]int, sizes[g])
			var terms []lp.Term
			for k := 0; k < sizes[g]; k++ {
				varOf[g][k] = m.AddVar(0, 1, costs[g][k], "l")
				terms = append(terms, lp.Term{Var: varOf[g][k], Coef: 1})
			}
			m.AddRow(lp.EQ, 1, terms...)
			mm.AddGroup(varOf[g])
		}
		for _, cf := range conflicts {
			m.AddRow(lp.LE, 1,
				lp.Term{Var: varOf[cf.g1][cf.k1], Coef: 1},
				lp.Term{Var: varOf[cf.g2][cf.k2], Coef: 1})
		}
		res := Solve(mm, Params{})

		if !found {
			if res.Status != Infeasible {
				t.Fatalf("trial %d: brute infeasible, milp %s", trial, res.Status)
			}
			continue
		}
		if res.Status != Optimal || math.Abs(res.Obj-bestObj) > 1e-4 {
			t.Fatalf("trial %d: milp %s obj %f != brute %f", trial, res.Status, res.Obj, bestObj)
		}
	}
}

func TestBestBoundReported(t *testing.T) {
	m := lp.NewModel()
	x := m.AddVar(0, 1, -1, "x")
	mm := NewModel(m)
	mm.MarkInt(x)
	res := Solve(mm, Params{})
	if res.Status != Optimal {
		t.Fatalf("status = %s", res.Status)
	}
	if res.BestBound > res.Obj+tol {
		t.Errorf("best bound %f exceeds obj %f", res.BestBound, res.Obj)
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Feasible: "feasible", Infeasible: "infeasible",
		Limit: "limit", Status(9): "unknown",
	} {
		if s.String() != want {
			t.Errorf("Status(%d) = %q, want %q", int(s), s.String(), want)
		}
	}
}

// windowLike is a random window-shaped MILP plus the data needed to
// enumerate its integer solutions.
type windowLike struct {
	mm              *Model
	cost, pos       [][]float64 // [cell][candidate]
	vars            [][]int
	vmax, d         int
	vmaxCost, dCost float64
	conflicts       [][4]int // (g1, k1, g2, k2): not both chosen
	dPair           [2]int   // d = 1 needs cells 0 and 1 on these candidates
}

// buildWindowLike constructs a random MILP shaped like the paper's window
// problems: exactly-one candidate groups with distinct fractional costs, a
// continuous net-bound variable vmax tied to the candidate choice, conflict
// rows, and an indicator binary d with a big-G reward when two choices pair
// up. Fractional costs keep LP optima unique, which is the regime the
// window MILPs live in after the lp package's deterministic RHS
// perturbation.
func buildWindowLike(rng *rand.Rand) *windowLike {
	m := lp.NewModel()
	w := &windowLike{mm: NewModel(m)}
	nGroups := 2 + rng.Intn(3) // 2..4 cells
	w.cost = make([][]float64, nGroups)
	w.pos = make([][]float64, nGroups)
	w.vars = make([][]int, nGroups)
	for g := range w.vars {
		size := 2 + rng.Intn(4) // 2..5 candidates
		w.cost[g] = make([]float64, size)
		w.pos[g] = make([]float64, size)
		w.vars[g] = make([]int, size)
		terms := make([]lp.Term, size)
		for k := range terms {
			w.cost[g][k] = rng.Float64() * 10
			w.vars[g][k] = m.AddVar(0, 1, w.cost[g][k], "l")
			w.pos[g][k] = float64(rng.Intn(20)) + rng.Float64()
			terms[k] = lp.Term{Var: w.vars[g][k], Coef: 1}
		}
		m.AddRow(lp.EQ, 1, terms...)
		w.mm.AddGroup(w.vars[g])
	}
	w.vmaxCost = 1 + rng.Float64()
	w.vmax = m.AddVar(0, math.Inf(1), w.vmaxCost, "max")
	for g := range w.vars {
		for k, v := range w.vars[g] {
			m.AddRow(lp.GE, 0, lp.Term{Var: w.vmax, Coef: 1},
				lp.Term{Var: v, Coef: -w.pos[g][k]})
		}
	}
	for c, nc := 0, 2+rng.Intn(3); c < nc; c++ {
		g1, g2 := rng.Intn(nGroups), rng.Intn(nGroups)
		if g1 == g2 {
			continue
		}
		cf := [4]int{g1, rng.Intn(len(w.vars[g1])), g2, rng.Intn(len(w.vars[g2]))}
		w.conflicts = append(w.conflicts, cf)
		m.AddRow(lp.LE, 1, lp.Term{Var: w.vars[g1][cf[1]], Coef: 1},
			lp.Term{Var: w.vars[g2][cf[3]], Coef: 1})
	}
	// d <= (l0 + l1)/2: an integral d is 1 only when both choices hold.
	w.dCost = -(1 + rng.Float64())
	w.d = m.AddVar(0, 1, w.dCost, "d")
	w.mm.MarkInt(w.d)
	w.dPair = [2]int{rng.Intn(len(w.vars[0])), rng.Intn(len(w.vars[1]))}
	m.AddRow(lp.LE, 0, lp.Term{Var: w.d, Coef: 1},
		lp.Term{Var: w.vars[0][w.dPair[0]], Coef: -0.5},
		lp.Term{Var: w.vars[1][w.dPair[1]], Coef: -0.5})
	return w
}

// value returns the objective of cell g choosing candidate sel[g] with
// indicator d and vmax at its cheapest, max(0, largest chosen position),
// and whether that assignment is feasible.
func (w *windowLike) value(sel []int, d int) (float64, bool) {
	for _, cf := range w.conflicts {
		if sel[cf[0]] == cf[1] && sel[cf[2]] == cf[3] {
			return 0, false
		}
	}
	if d == 1 && (sel[0] != w.dPair[0] || sel[1] != w.dPair[1]) {
		return 0, false
	}
	obj, vmax := w.dCost*float64(d), 0.0
	for g, k := range sel {
		obj += w.cost[g][k]
		vmax = math.Max(vmax, w.pos[g][k])
	}
	return obj + w.vmaxCost*vmax, true
}

// TestWindowLikeVsBrute checks Solve on window-shaped MILPs: untimed solves
// must reach the optimum found by enumerating every candidate choice and
// indicator value, and a solve cut by a 1 ms deadline must keep a seeded
// incumbent or improve on it.
func TestWindowLikeVsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 60; trial++ {
		w := buildWindowLike(rng)
		sel := make([]int, len(w.vars))
		want, found := math.Inf(1), false
		var visit func(g int)
		visit = func(g int) {
			if g == len(sel) {
				for d := 0; d <= 1; d++ {
					if obj, ok := w.value(sel, d); ok && obj < want {
						want, found = obj, true
					}
				}
				return
			}
			for sel[g] = range w.vars[g] {
				visit(g + 1)
			}
		}
		visit(0)
		res := Solve(w.mm, Params{MaxNodes: 5000})
		if !found {
			if res.Status != Infeasible {
				t.Fatalf("trial %d: brute infeasible, milp %s", trial, res.Status)
			}
			continue
		}
		if res.Status != Optimal || math.Abs(res.Obj-want) > 1e-6 {
			t.Fatalf("trial %d: milp %s obj %.9f != brute %.9f", trial, res.Status, res.Obj, want)
		}
	}

	rng = rand.New(rand.NewSource(5150))
	seeded := 0
	for trial := 0; trial < 60; trial++ {
		w := buildWindowLike(rng)
		incObj, ok := w.value(make([]int, len(w.vars)), 0)
		if !ok {
			continue // a conflict row excludes the first-candidate choice
		}
		seeded++
		inc := make([]float64, w.mm.LP.NumVars())
		for g := range w.vars {
			inc[w.vars[g][0]] = 1
			inc[w.vmax] = math.Max(inc[w.vmax], w.pos[g][0])
		}
		res := Solve(w.mm, Params{TimeLimit: time.Millisecond, Incumbent: inc, IncumbentObj: incObj})
		if res.X == nil || res.Obj > incObj+1e-9 {
			t.Fatalf("trial %d: %s, X nil %v, obj %v vs incumbent %v",
				trial, res.Status, res.X == nil, res.Obj, incObj)
		}
	}
	if seeded < 20 {
		t.Fatalf("only %d of 60 timed trials had a feasible first-candidate incumbent", seeded)
	}
}
