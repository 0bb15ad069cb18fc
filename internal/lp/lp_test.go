package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

const tol = 1e-5

func TestSimple2D(t *testing.T) {
	// min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0.
	// Optimum at (2,2) with obj -6.
	m := NewModel()
	x := m.AddVar(0, 3, -1, "x")
	y := m.AddVar(0, 2, -2, "y")
	m.AddRow(LE, 4, Term{x, 1}, Term{y, 1})
	sol := m.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %s", sol.Status)
	}
	if math.Abs(sol.Obj-(-6)) > tol {
		t.Errorf("obj = %f, want -6", sol.Obj)
	}
	if math.Abs(sol.X[x]-2) > tol || math.Abs(sol.X[y]-2) > tol {
		t.Errorf("x = %v, want (2,2)", sol.X)
	}
}

func TestEquality(t *testing.T) {
	// min x + y s.t. x + y = 5, x - y = 1 => x=3, y=2, obj 5.
	m := NewModel()
	x := m.AddVar(0, math.Inf(1), 1, "x")
	y := m.AddVar(0, math.Inf(1), 1, "y")
	m.AddRow(EQ, 5, Term{x, 1}, Term{y, 1})
	m.AddRow(EQ, 1, Term{x, 1}, Term{y, -1})
	sol := m.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %s", sol.Status)
	}
	if math.Abs(sol.X[x]-3) > tol || math.Abs(sol.X[y]-2) > tol {
		t.Errorf("x = %v, want (3,2)", sol.X)
	}
}

func TestGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 4, x >= 1 => optimum (4,0)? check:
	// obj(4,0)=8; obj(1,3)=11. So (4,0), obj 8.
	m := NewModel()
	x := m.AddVar(1, math.Inf(1), 2, "x")
	y := m.AddVar(0, math.Inf(1), 3, "y")
	m.AddRow(GE, 4, Term{x, 1}, Term{y, 1})
	sol := m.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %s", sol.Status)
	}
	if math.Abs(sol.Obj-8) > tol {
		t.Errorf("obj = %f, want 8", sol.Obj)
	}
}

func TestInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, 10, 1, "x")
	m.AddRow(GE, 5, Term{x, 1})
	m.AddRow(LE, 3, Term{x, 1})
	sol := m.Solve()
	if sol.Status != Infeasible {
		t.Fatalf("status = %s, want infeasible", sol.Status)
	}
}

func TestInfeasibleBounds(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, 2, 1, "x")
	y := m.AddVar(0, 2, 1, "y")
	m.AddRow(GE, 5, Term{x, 1}, Term{y, 1})
	sol := m.Solve()
	if sol.Status != Infeasible {
		t.Fatalf("status = %s, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, math.Inf(1), -1, "x")
	y := m.AddVar(0, math.Inf(1), 0, "y")
	m.AddRow(GE, 1, Term{x, 1}, Term{y, 1})
	sol := m.Solve()
	if sol.Status != Unbounded {
		t.Fatalf("status = %s, want unbounded", sol.Status)
	}
}

func TestBoundFlipOnly(t *testing.T) {
	// No constraints: optimum is each var at the bound favoring its cost.
	m := NewModel()
	x := m.AddVar(-1, 5, -1, "x")
	y := m.AddVar(-2, 3, 2, "y")
	sol := m.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %s", sol.Status)
	}
	if math.Abs(sol.X[x]-5) > tol || math.Abs(sol.X[y]-(-2)) > tol {
		t.Errorf("x = %v, want (5,-2)", sol.X)
	}
}

func TestNegativeLowerBounds(t *testing.T) {
	// min x + y s.t. x + y >= -3, x,y in [-5, 5]: many optima with
	// obj -3 (constraint binds since unconstrained min is -10 < -3).
	m := NewModel()
	x := m.AddVar(-5, 5, 1, "x")
	y := m.AddVar(-5, 5, 1, "y")
	m.AddRow(GE, -3, Term{x, 1}, Term{y, 1})
	sol := m.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %s", sol.Status)
	}
	if math.Abs(sol.Obj-(-3)) > tol {
		t.Errorf("obj = %f, want -3", sol.Obj)
	}
}

func TestFreeVariable(t *testing.T) {
	// min x s.t. x >= -7 with x free: obj -7.
	m := NewModel()
	x := m.AddVar(math.Inf(-1), math.Inf(1), 1, "x")
	m.AddRow(GE, -7, Term{x, 1})
	sol := m.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %s", sol.Status)
	}
	if math.Abs(sol.X[x]-(-7)) > tol {
		t.Errorf("x = %f, want -7", sol.X[x])
	}
}

func TestFixedVariable(t *testing.T) {
	m := NewModel()
	x := m.AddVar(3, 3, -10, "x")
	y := m.AddVar(0, 10, 1, "y")
	m.AddRow(GE, 5, Term{x, 1}, Term{y, 1})
	sol := m.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %s", sol.Status)
	}
	if math.Abs(sol.X[x]-3) > tol || math.Abs(sol.X[y]-2) > tol {
		t.Errorf("x = %v, want (3,2)", sol.X)
	}
}

func TestDuplicateTermsMerged(t *testing.T) {
	// x + x <= 4 means 2x <= 4.
	m := NewModel()
	x := m.AddVar(0, 10, -1, "x")
	m.AddRow(LE, 4, Term{x, 1}, Term{x, 1})
	sol := m.Solve()
	if sol.Status != Optimal || math.Abs(sol.X[x]-2) > tol {
		t.Fatalf("sol = %+v, want x=2", sol)
	}
}

func TestRowReadsBack(t *testing.T) {
	// Row returns each row's merged terms in variable order, without the
	// terms that merged to zero.
	m := NewModel()
	x := m.AddVar(0, 10, 0, "x")
	y := m.AddVar(0, 10, 0, "y")
	z := m.AddVar(0, 10, 0, "z")
	m.AddRow(GE, 1, Term{z, 2}, Term{x, 1}, Term{x, 1})
	m.AddRow(LE, 3, Term{y, 1}, Term{z, 1}, Term{z, -1})
	m.AddRow(EQ, 0)
	want := []struct {
		sense Sense
		rhs   float64
		terms []Term
	}{
		{GE, 1, []Term{{x, 2}, {z, 2}}},
		{LE, 3, []Term{{y, 1}}},
		{EQ, 0, nil},
	}
	for i, w := range want {
		sense, rhs, terms := m.Row(i)
		if sense != w.sense || rhs != w.rhs || !slices.Equal(terms, w.terms) {
			t.Errorf("row %d = %v %g %v, want %v %g %v", i, sense, rhs, terms, w.sense, w.rhs, w.terms)
		}
	}
}

func TestSolveWithBounds(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, 10, -1, "x")
	m.AddRow(LE, 8, Term{x, 1})
	sol := m.Solve()
	if math.Abs(sol.X[x]-8) > tol {
		t.Fatalf("base solve x = %f", sol.X[x])
	}
	lo, hi := m.Bounds()
	hi[x] = 5
	sol2 := m.SolveWithBounds(lo, hi)
	if sol2.Status != Optimal || math.Abs(sol2.X[x]-5) > tol {
		t.Fatalf("bounded solve = %+v, want x=5", sol2)
	}
	// Original model unchanged.
	sol3 := m.Solve()
	if math.Abs(sol3.X[x]-8) > tol {
		t.Error("SolveWithBounds mutated the model")
	}
}

func TestDegenerateLP(t *testing.T) {
	// Multiple constraints through one vertex; must still terminate.
	m := NewModel()
	x := m.AddVar(0, math.Inf(1), -1, "x")
	y := m.AddVar(0, math.Inf(1), -1, "y")
	m.AddRow(LE, 2, Term{x, 1}, Term{y, 1})
	m.AddRow(LE, 2, Term{x, 1}, Term{y, 1})
	m.AddRow(LE, 4, Term{x, 2}, Term{y, 2})
	m.AddRow(LE, 1, Term{x, 1})
	m.AddRow(LE, 1, Term{y, 1})
	sol := m.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %s", sol.Status)
	}
	if math.Abs(sol.Obj-(-2)) > tol {
		t.Errorf("obj = %f, want -2", sol.Obj)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// x + y = 2 stated twice: redundant but consistent.
	m := NewModel()
	x := m.AddVar(0, 5, 1, "x")
	y := m.AddVar(0, 5, 2, "y")
	m.AddRow(EQ, 2, Term{x, 1}, Term{y, 1})
	m.AddRow(EQ, 2, Term{x, 1}, Term{y, 1})
	sol := m.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %s", sol.Status)
	}
	if math.Abs(sol.X[x]-2) > tol || math.Abs(sol.X[y]) > tol {
		t.Errorf("x = %v, want (2,0)", sol.X)
	}
}

func TestBigMStyleIndicator(t *testing.T) {
	// The paper's Constraint (4) pattern: u - v <= G(1-d) with d in [0,1]
	// relaxed. With u fixed 10, v fixed 0, G=100: d <= 0.9.
	// Maximizing d (min -d) should give d = 0.9.
	m := NewModel()
	d := m.AddVar(0, 1, -1, "d")
	u := m.AddVar(10, 10, 0, "u")
	v := m.AddVar(0, 0, 0, "v")
	m.AddRow(LE, 100, Term{u, 1}, Term{v, -1}, Term{d, 100})
	sol := m.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %s", sol.Status)
	}
	if math.Abs(sol.X[d]-0.9) > tol {
		t.Errorf("d = %f, want 0.9", sol.X[d])
	}
}

// --- brute-force cross-check ---------------------------------------------

// bruteLP solves min c·x over {x : rows, lo<=x<=hi} for n<=3 by enumerating
// all vertices (intersections of n active constraints drawn from rows and
// bounds) and returns (obj, feasible).
func bruteLP(n int, c []float64, rows [][]float64, senses []Sense, rhs []float64,
	lo, hi []float64) (float64, bool) {
	// Build the full constraint list as (a, b) pairs meaning a·x <= b,
	// flipping GE; EQ contributes both directions.
	type hc struct {
		a []float64
		b float64
	}
	var hcs []hc
	for i, r := range rows {
		switch senses[i] {
		case LE:
			hcs = append(hcs, hc{r, rhs[i]})
		case GE:
			neg := make([]float64, n)
			for k := range r {
				neg[k] = -r[k]
			}
			hcs = append(hcs, hc{neg, -rhs[i]})
		case EQ:
			neg := make([]float64, n)
			for k := range r {
				neg[k] = -r[k]
			}
			hcs = append(hcs, hc{r, rhs[i]}, hc{neg, -rhs[i]})
		}
	}
	for k := 0; k < n; k++ {
		a := make([]float64, n)
		a[k] = 1
		hcs = append(hcs, hc{a, hi[k]})
		a2 := make([]float64, n)
		a2[k] = -1
		hcs = append(hcs, hc{a2, -lo[k]})
	}
	feasible := func(x []float64) bool {
		for _, h := range hcs {
			s := 0.0
			for k := 0; k < n; k++ {
				s += h.a[k] * x[k]
			}
			if s > h.b+1e-7 {
				return false
			}
		}
		return true
	}
	best := math.Inf(1)
	found := false
	// Enumerate all n-subsets of hcs, solve the linear system.
	idx := make([]int, n)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == n {
			A := make([][]float64, n)
			b := make([]float64, n)
			for i := 0; i < n; i++ {
				A[i] = append([]float64(nil), hcs[idx[i]].a...)
				b[i] = hcs[idx[i]].b
			}
			x, ok := solveSquare(A, b)
			if !ok || !feasible(x) {
				return
			}
			obj := 0.0
			for k := 0; k < n; k++ {
				obj += c[k] * x[k]
			}
			if obj < best {
				best = obj
				found = true
			}
			return
		}
		for i := start; i < len(hcs); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return best, found
}

// solveSquare solves Ax=b by Gaussian elimination with partial pivoting.
func solveSquare(A [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[p][col]) {
				p = r
			}
		}
		if math.Abs(A[p][col]) < 1e-9 {
			return nil, false
		}
		A[col], A[p] = A[p], A[col]
		b[col], b[p] = b[p], b[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := A[r][col] / A[col][col]
			for k := col; k < n; k++ {
				A[r][k] -= f * A[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for k := 0; k < n; k++ {
		x[k] = b[k] / A[k][k]
	}
	return x, true
}

// TestRandomVsBruteForce cross-checks the simplex against vertex
// enumeration on hundreds of random small LPs with bounded boxes.
func TestRandomVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(2) // 2 or 3 vars
		nRows := 1 + rng.Intn(4)
		c := make([]float64, n)
		lo := make([]float64, n)
		hi := make([]float64, n)
		for k := 0; k < n; k++ {
			c[k] = float64(rng.Intn(11) - 5)
			lo[k] = float64(rng.Intn(4) - 2)
			hi[k] = lo[k] + float64(1+rng.Intn(6))
		}
		rows := make([][]float64, nRows)
		senses := make([]Sense, nRows)
		rhs := make([]float64, nRows)
		for i := 0; i < nRows; i++ {
			rows[i] = make([]float64, n)
			nz := 0
			for k := 0; k < n; k++ {
				rows[i][k] = float64(rng.Intn(7) - 3)
				if rows[i][k] != 0 {
					nz++
				}
			}
			if nz == 0 {
				rows[i][0] = 1
			}
			senses[i] = Sense(rng.Intn(3))
			rhs[i] = float64(rng.Intn(13) - 6)
		}

		wantObj, wantFeasible := bruteLP(n, c, rows, senses, rhs, lo, hi)

		m := NewModel()
		vars := make([]int, n)
		for k := 0; k < n; k++ {
			vars[k] = m.AddVar(lo[k], hi[k], c[k], "v")
		}
		for i := 0; i < nRows; i++ {
			var terms []Term
			for k := 0; k < n; k++ {
				if rows[i][k] != 0 {
					terms = append(terms, Term{vars[k], rows[i][k]})
				}
			}
			m.AddRow(senses[i], rhs[i], terms...)
		}
		sol := m.Solve()

		if !wantFeasible {
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: brute says infeasible, simplex says %s (obj %f)",
					trial, sol.Status, sol.Obj)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: brute obj %f but simplex status %s",
				trial, wantObj, sol.Status)
		}
		if math.Abs(sol.Obj-wantObj) > 1e-4 {
			t.Fatalf("trial %d: simplex obj %f != brute obj %f\nc=%v rows=%v senses=%v rhs=%v lo=%v hi=%v",
				trial, sol.Obj, wantObj, c, rows, senses, rhs, lo, hi)
		}
		// Verify feasibility of the reported point.
		for i := 0; i < nRows; i++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += rows[i][k] * sol.X[vars[k]]
			}
			switch senses[i] {
			case LE:
				if s > rhs[i]+1e-5 {
					t.Fatalf("trial %d: row %d violated: %f > %f", trial, i, s, rhs[i])
				}
			case GE:
				if s < rhs[i]-1e-5 {
					t.Fatalf("trial %d: row %d violated: %f < %f", trial, i, s, rhs[i])
				}
			case EQ:
				if math.Abs(s-rhs[i]) > 1e-5 {
					t.Fatalf("trial %d: row %d violated: %f != %f", trial, i, s, rhs[i])
				}
			}
		}
		for k := 0; k < n; k++ {
			v := sol.X[vars[k]]
			if v < lo[k]-1e-5 || v > hi[k]+1e-5 {
				t.Fatalf("trial %d: var %d = %f outside [%f,%f]", trial, k, v, lo[k], hi[k])
			}
		}
	}
}

func TestStatusSenseStrings(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || IterLimit.String() != "iteration-limit" {
		t.Error("status strings broken")
	}
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("sense strings broken")
	}
}

func TestAddVarPanicsOnBadBounds(t *testing.T) {
	m := NewModel()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for lo > hi")
		}
	}()
	m.AddVar(3, 1, 0, "bad")
}

func TestAddRowPanicsOnBadVar(t *testing.T) {
	m := NewModel()
	m.AddVar(0, 1, 0, "x")
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown var")
		}
	}()
	m.AddRow(LE, 1, Term{5, 1})
}

func TestLargerAssignmentLP(t *testing.T) {
	// 5x5 assignment problem relaxation: LP optimum is integral and equals
	// the min-cost assignment; compare against brute-force permutation.
	rng := rand.New(rand.NewSource(99))
	const n = 5
	cost := [n][n]float64{}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cost[i][j] = float64(rng.Intn(50))
		}
	}
	m := NewModel()
	var x [n][n]int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x[i][j] = m.AddVar(0, 1, cost[i][j], "x")
		}
	}
	for i := 0; i < n; i++ {
		terms := make([]Term, n)
		for j := 0; j < n; j++ {
			terms[j] = Term{x[i][j], 1}
		}
		m.AddRow(EQ, 1, terms...)
	}
	for j := 0; j < n; j++ {
		terms := make([]Term, n)
		for i := 0; i < n; i++ {
			terms[i] = Term{x[i][j], 1}
		}
		m.AddRow(EQ, 1, terms...)
	}
	sol := m.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %s", sol.Status)
	}
	// Brute force over permutations.
	perm := []int{0, 1, 2, 3, 4}
	best := math.Inf(1)
	var visit func(k int)
	visit = func(k int) {
		if k == n {
			s := 0.0
			for i := 0; i < n; i++ {
				s += cost[i][perm[i]]
			}
			if s < best {
				best = s
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			visit(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	visit(0)
	if math.Abs(sol.Obj-best) > 1e-5 {
		t.Errorf("assignment LP obj %f != brute %f", sol.Obj, best)
	}
}
