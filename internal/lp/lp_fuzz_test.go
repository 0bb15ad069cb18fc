package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Property tests for the sparse LU simplex kernel: on randomly generated
// bounded LPs — including degenerate (duplicate rows, fixed variables) and
// near-singular (almost-parallel rows) instances — the factorized kernel
// must report the same status as the dense-inverse reference in
// denseref_test.go, and when both are optimal the objectives must agree to
// 1e-7. The warm half re-solves each instance through one shared Arena with
// branch-and-bound style bound tightenings in depth-first shape (a first
// child's subtree, then a parent-basis restore for its sibling), checking
// the dual warm-start path (Forrest–Tomlin updates, refactorization
// triggers, restored bases) against cold reference solves of the identical
// bounds.

const objTol = 1e-7

// genLP builds a random sparse bounded LP from the seed. Roughly a quarter
// of the instances get a duplicated row (primal degeneracy), a fixed
// variable, and/or a nearly parallel row (ill-conditioned basis candidates).
func genLP(rng *rand.Rand) *Model {
	m := NewModel()
	n := 3 + rng.Intn(20)
	rows := 2 + rng.Intn(16)

	for j := 0; j < n; j++ {
		lo := float64(rng.Intn(9)) - 4 // -4..4
		width := float64(1 + rng.Intn(12))
		hi := lo + width
		if rng.Intn(4) == 0 && j > 0 {
			hi = lo // fixed variable
		}
		obj := float64(rng.Intn(21)-10) / 2 // -5..5 in halves
		m.AddVar(lo, hi, obj, "")
	}

	addRow := func() []Term {
		nt := 2 + rng.Intn(4)
		terms := make([]Term, 0, nt)
		for k := 0; k < nt; k++ {
			c := float64(rng.Intn(11) - 5)
			if c == 0 {
				c = 1
			}
			terms = append(terms, Term{Var: rng.Intn(n), Coef: c})
		}
		sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
		// Anchor the RHS near the row's value at a random interior point so
		// most instances are feasible; the offset still leaves a healthy
		// share of clearly infeasible ones.
		v := 0.0
		for _, t := range terms {
			frac := rng.Float64()
			v += t.Coef * (m.lo[t.Var] + frac*(m.hi[t.Var]-m.lo[t.Var]))
		}
		rhs := math.Round(v) + float64(rng.Intn(13)-4)
		m.AddRow(sense, rhs, terms...)
		return terms
	}

	var prev []Term
	for i := 0; i < rows; i++ {
		terms := addRow()
		if prev == nil || rng.Intn(4) == 0 {
			prev = append([]Term(nil), terms...)
		}
	}
	if prev != nil && rng.Intn(4) == 0 {
		// Duplicate row: same terms, same-or-looser RHS. Degenerate basis.
		m.AddRow(LE, float64(rng.Intn(20)), prev...)
	}
	if prev != nil && rng.Intn(4) == 0 {
		// Nearly parallel row: one coefficient nudged by 1e-9. If both end
		// up basic the basis is near-singular, exercising the Markowitz
		// pivot tolerance and the update stability check.
		near := append([]Term(nil), prev...)
		near[0].Coef += 1e-9
		m.AddRow(GE, float64(-rng.Intn(20)), near...)
	}
	return m
}

// genAssignLP builds a window-shaped LP: an exactly-one row per cell over
// its candidate sites (λ ∈ [0, 1]), a capacity row Σλ ≤ 1 per site the
// cells share, and pairs of big-G rows G·d ± (off·λ_a − off·λ_b) ≤ G that
// tie a pair variable d ∈ [0, 1] to two cells' sites, as the window MILPs'
// relaxations do. G and every right-hand side stay at most 20, so
// perturbRHS's shift stays below feasTol. Placing each cell on its first
// site is feasible.
func genAssignLP(rng *rand.Rand) *Model {
	m := NewModel()
	cells, sites := 2+rng.Intn(5), 2+rng.Intn(4)
	lambda := make([][]int, cells)
	for c := range lambda {
		var terms []Term
		for s := 0; s < sites; s++ {
			j := m.AddVar(0, 1, float64(rng.Intn(11)-5), "")
			lambda[c] = append(lambda[c], j)
			terms = append(terms, Term{Var: j, Coef: 1})
		}
		m.AddRow(EQ, 1, terms...)
	}
	// Cell c's site s is position (c+s) mod P, so first sites never share.
	P := cells + sites
	for p := 0; p < P; p++ {
		var terms []Term
		for c := range lambda {
			if s := (p - c + P) % P; s < sites {
				terms = append(terms, Term{Var: lambda[c][s], Coef: 1})
			}
		}
		if len(terms) > 1 {
			m.AddRow(LE, 1, terms...)
		}
	}
	for k := 1 + rng.Intn(cells); k > 0; k-- {
		a := rng.Intn(cells)
		b := (a + 1 + rng.Intn(cells-1)) % cells
		d := m.AddVar(0, 1, -float64(1+rng.Intn(5)), "")
		G := float64(8 + rng.Intn(13))
		for _, sign := range []float64{1, -1} {
			terms := []Term{{Var: d, Coef: G}}
			for s := 0; s < sites; s++ {
				off := float64(s + 1)
				terms = append(terms, Term{Var: lambda[a][s], Coef: sign * off}, Term{Var: lambda[b][s], Coef: -sign * off})
			}
			m.AddRow(LE, G, terms...)
		}
	}
	return m
}

// checkAgainstRef solves m with the live kernel (through a, warm or cold as
// a's state dictates) and the dense reference (always cold) under the same
// bounds, and fails the test on any disagreement. Returns the live solution.
func checkAgainstRef(t *testing.T, m *Model, lo, hi []float64, a *Arena, tag string) *Solution {
	t.Helper()
	got := m.SolveWithScratch(lo, hi, nil, a)
	want := refSolve(m, lo, hi)
	if got.Status == IterLimit || want.Status == IterLimit {
		t.Fatalf("%s: iteration limit hit (lu=%v ref=%v) — cycling?", tag, got.Status, want.Status)
	}
	if got.Status != want.Status {
		t.Fatalf("%s: status mismatch: lu=%v ref=%v", tag, got.Status, want.Status)
	}
	if got.Status == Optimal {
		if diff := math.Abs(got.Obj - want.Obj); diff > objTol*(1+math.Max(math.Abs(got.Obj), math.Abs(want.Obj))) {
			t.Fatalf("%s: objective mismatch: lu=%.12g ref=%.12g (diff %.3g)", tag, got.Obj, want.Obj, diff)
		}
	}
	return got
}

// tightenBounds mimics a branch-and-bound child: shrink a few random
// variable intervals, keeping lo <= hi.
func tightenBounds(rng *rand.Rand, lo, hi []float64) {
	for k := 0; k < 1+rng.Intn(3); k++ {
		j := rng.Intn(len(lo))
		if math.IsInf(lo[j], -1) || math.IsInf(hi[j], 1) || hi[j]-lo[j] < 0.5 {
			continue
		}
		cut := lo[j] + rng.Float64()*(hi[j]-lo[j])
		if rng.Intn(2) == 0 {
			hi[j] = math.Ceil(cut)
			if hi[j] < lo[j] {
				hi[j] = lo[j]
			}
		} else {
			lo[j] = math.Floor(cut)
			if lo[j] > hi[j] {
				lo[j] = hi[j]
			}
		}
	}
}

func runKernelAgreement(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var m *Model
	if seed < 0 {
		m = genAssignLP(rng)
	} else {
		m = genLP(rng)
	}
	a := NewArena()

	sol := checkAgainstRef(t, m, nil, nil, a, "cold")
	if sol.Status != Optimal {
		return // nothing to warm-start from
	}

	// Warm sequence in branch-and-bound DFS shape, through the same arena:
	// save the parent's basis, descend one to three tightenings into a
	// first child's subtree, restore the parent's basis, and solve a sibling
	// tightening of the parent's bounds. The live kernel takes the dual
	// warm-start path (after a restore, from a refactorized basis); the
	// reference re-solves cold each time. Enough levels to cross the update
	// cap's refactorization trigger.
	lo, hi := m.Bounds()
	loA := make([]float64, len(lo))
	hiA := make([]float64, len(hi))
	var parent Basis
	for level := 0; level < 6; level++ {
		a.SaveBasis(&parent)
		copy(loA, lo)
		copy(hiA, hi)
		for depth := 0; depth < 1+rng.Intn(3); depth++ {
			tightenBounds(rng, loA, hiA)
			if checkAgainstRef(t, m, loA, hiA, a, "warm first child").Status != Optimal {
				break
			}
		}
		a.RestoreBasis(&parent)
		tightenBounds(rng, lo, hi)
		sol = checkAgainstRef(t, m, lo, hi, a, "warm restored sibling")
		if sol.Status != Optimal {
			return
		}
	}
}

// TestRestoreBasisLeavesNoHistory pins that a RestoreBasis on one model
// leaves nothing behind for the next model the arena binds: solving model
// B after a save/restore on model A gives bit for bit the Solutions and
// Arena.Stats delta of a fresh arena. A pending refactorization leaking
// across the model switch would make kernel counts, and possibly pivot
// choices, depend on which window a worker solved before.
func TestRestoreBasisLeavesNoHistory(t *testing.T) {
	// solveB runs a cold solve of mB then a few warm tightenings.
	solveB := func(mB *Model, a *Arena, seed int64) []*Solution {
		rng := rand.New(rand.NewSource(seed))
		var sols []*Solution
		lo, hi := mB.Bounds()
		for step := 0; step < 5; step++ {
			if step > 0 {
				tightenBounds(rng, lo, hi)
			}
			sol := mB.SolveWithScratch(lo, hi, nil, a)
			// RedCost is arena-owned: keep a copy before the next solve.
			sol.RedCost = slices.Clone(sol.RedCost)
			sols = append(sols, sol)
			if sol.Status != Optimal {
				break
			}
		}
		return sols
	}
	for seed := int64(1); seed <= 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mA, mB := genLP(rng), genLP(rng)
		a := NewArena()
		if mA.SolveWithScratch(nil, nil, nil, a).Status != Optimal {
			continue
		}
		var b Basis
		a.SaveBasis(&b)
		lo, hi := mA.Bounds()
		for step := 0; step < 3; step++ {
			tightenBounds(rng, lo, hi)
			if mA.SolveWithScratch(lo, hi, nil, a).Status != Optimal {
				break
			}
		}
		a.RestoreBasis(&b)
		if !a.refactor {
			t.Fatalf("seed %d: restore left no refactorization pending; the test checks nothing", seed)
		}

		before := a.Stats()
		got := solveB(mB, a, seed)
		after := a.Stats()
		gotDelta := Stats{
			Solves:    after.Solves - before.Solves,
			Pivots:    after.Pivots - before.Pivots,
			Refactors: after.Refactors - before.Refactors,
			FillNnz:   after.FillNnz - before.FillNnz,
			EtaNnz:    after.EtaNnz - before.EtaNnz,
		}
		fresh := NewArena()
		want := solveB(mB, fresh, seed)
		if gotDelta != fresh.Stats() {
			t.Fatalf("seed %d: stats after restore on A %+v, fresh arena %+v", seed, gotDelta, fresh.Stats())
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d solves after restore on A, %d on a fresh arena", seed, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Status != w.Status || g.Obj != w.Obj || g.Iters != w.Iters ||
				!slices.Equal(g.X, w.X) || !slices.Equal(g.RedCost, w.RedCost) {
				t.Fatalf("seed %d solve %d: after restore on A %+v, fresh arena %+v", seed, i, g, w)
			}
		}
	}
}

func TestLPKernelAgreement(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 60
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		if !t.Run("", func(t *testing.T) { runKernelAgreement(t, seed) }) {
			t.Fatalf("seed %d failed", seed)
		}
	}
}

// FuzzLPKernelAgreement is the same property exposed to `go test -fuzz`:
// each fuzz input is a generator seed. Seeds 317 through 747 are ones whose
// first-child subtrees run long enough to reach the update cap mid-subtree,
// so a refactorization lands between a parent's save and its restore.
// Seeds 1318 through 1527 are ones where the dual pricing's weights pick a
// leaving row other than the most violated one at least twice (counted
// with a temporary counter beside the pricing loop): only 2 of
// TestLPKernelAgreement's 400 seeds do so even once. A negative seed draws
// an assignment-structured window LP (genAssignLP) instead; seeds −1
// through −8 are such.
func FuzzLPKernelAgreement(f *testing.F) {
	for _, s := range []int64{1, 7, 42, 1337, 99991, 317, 409, 436, 544, 747, 1318, 1445, 1482, 1527, -1, -2, -3, -4, -5, -6, -7, -8} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runKernelAgreement(t, seed)
	})
}

// TestLPDegenerateHandcrafted pins a few constructed worst cases that random
// generation only hits occasionally: a fully degenerate transportation-style
// block, exactly duplicated equality rows, and an equality pair differing by
// 1e-9 (a basis one eps from singular).
func TestLPDegenerateHandcrafted(t *testing.T) {
	t.Run("degenerate-assignment", func(t *testing.T) {
		m := NewModel()
		var v [9]int
		for i := range v {
			v[i] = m.AddVar(0, 1, float64((i*7)%5)-2, "")
		}
		for r := 0; r < 3; r++ {
			m.AddRow(EQ, 1, Term{v[3*r], 1}, Term{v[3*r+1], 1}, Term{v[3*r+2], 1})
			m.AddRow(EQ, 1, Term{v[r], 1}, Term{v[r+3], 1}, Term{v[r+6], 1})
		}
		checkAgainstRef(t, m, nil, nil, NewArena(), "assignment")
	})
	t.Run("duplicate-equalities", func(t *testing.T) {
		m := NewModel()
		x := m.AddVar(0, 10, 1, "")
		y := m.AddVar(0, 10, -2, "")
		m.AddRow(EQ, 7, Term{x, 1}, Term{y, 1})
		m.AddRow(EQ, 7, Term{x, 1}, Term{y, 1})
		m.AddRow(EQ, 7, Term{x, 1}, Term{y, 1})
		checkAgainstRef(t, m, nil, nil, NewArena(), "dup-eq")
	})
	t.Run("near-singular-pair", func(t *testing.T) {
		m := NewModel()
		x := m.AddVar(-5, 5, 1, "")
		y := m.AddVar(-5, 5, 1, "")
		z := m.AddVar(-5, 5, -1, "")
		m.AddRow(LE, 3, Term{x, 1}, Term{y, 2}, Term{z, 1})
		m.AddRow(LE, 3, Term{x, 1}, Term{y, 2 + 1e-9}, Term{z, 1})
		m.AddRow(GE, -2, Term{x, 1}, Term{y, -1})
		checkAgainstRef(t, m, nil, nil, NewArena(), "near-singular")
	})
}
