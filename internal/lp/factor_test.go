package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randSparseCol draws a column with one to four nonzeros in distinct rows of
// an m-row basis: small integers like the window models' coefficients, with
// an occasional fractional or big-G-sized entry.
func randSparseCol(rng *rand.Rand, m int) []entry {
	n := 1 + rng.Intn(4)
	if n > m {
		n = m
	}
	col := make([]entry, 0, n)
	for _, i := range rng.Perm(m)[:n] {
		v := float64(rng.Intn(11) - 5)
		switch {
		case v == 0:
			v = 1
		case rng.Intn(8) == 0:
			v += rng.Float64()
		case rng.Intn(16) == 0:
			v *= 40
		}
		col = append(col, entry{row: i, val: v})
	}
	return col
}

// luMatches fails the test unless f's FTRAN and BTRAN agree with a fresh
// factorization of basis on a few random sparse right-hand sides, to 1e-9
// relative to the solution's magnitude.
func luMatches(t *testing.T, rng *rand.Rand, f *luFactor, cols [][]entry, basis []int, tag string) {
	t.Helper()
	m := f.m
	g := &luFactor{}
	g.reset(m)
	if !g.factorize(cols, basis) {
		t.Fatalf("%s: fresh factorization of the updated basis is singular", tag)
	}
	x, y := make([]float64, m), make([]float64, m)
	check := func(kind string) {
		t.Helper()
		scale := 1.0
		for i := range y {
			scale = math.Max(scale, math.Abs(y[i]))
		}
		for i := range x {
			if d := math.Abs(x[i] - y[i]); d > 1e-9*scale {
				t.Fatalf("%s: %s entry %d: updated %.15g, refactored %.15g", tag, kind, i, x[i], y[i])
			}
		}
	}
	for rep := 0; rep < 3; rep++ {
		clear(x)
		for k := 0; k < 1+rng.Intn(3); k++ {
			x[rng.Intn(m)] = float64(rng.Intn(9) - 4)
		}
		copy(y, x)
		f.ftranDense(x)
		g.ftranDense(y)
		check("FTRAN")
		clear(x)
		for k := 0; k < 1+rng.Intn(3); k++ {
			x[rng.Intn(m)] = float64(rng.Intn(9) - 4)
		}
		copy(y, x)
		f.btranDense(x)
		g.btranDense(y)
		check("BTRAN")
	}
}

// TestLUUpdateMatchesRefactor drives the Forrest–Tomlin update directly. On
// random sparse bases it replaces columns until the update cap calls for a
// refactorization, and after every replacement the updated factorization
// must solve like a fresh one of the same basis. A replacement that makes
// the basis nearly singular must be refused, leave the factorization as it
// was, and give way to a refactorization.
func TestLUUpdateMatchesRefactor(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + rng.Intn(60)
		// Pool: a unit column per row (slacks), then random structurals.
		var cols [][]entry
		for i := 0; i < m; i++ {
			cols = append(cols, []entry{{row: i, val: 1}})
		}
		for j := 0; j < 3*m; j++ {
			cols = append(cols, randSparseCol(rng, m))
		}
		basis := make([]int, m)
		for i := range basis {
			basis[i] = i
		}
		inBasis := make([]bool, len(cols))
		for _, j := range basis {
			inBasis[j] = true
		}
		f := &luFactor{}
		f.reset(m)
		w := make([]float64, m)
		var ind []int32

		// replace swaps entering column q into a random slot whose spike
		// entry is not small, through an update; it reports whether q fit.
		replace := func(q int) bool {
			ind = f.ftranSpike(cols[q], w, ind)
			defer clearSpike(w, ind)
			maxW := 0.0
			for _, i := range ind {
				maxW = math.Max(maxW, math.Abs(w[i]))
			}
			var slots []int
			for _, i := range ind {
				if math.Abs(w[i]) >= 0.1*maxW {
					slots = append(slots, int(i))
				}
			}
			if maxW < 1e-6 || len(slots) == 0 {
				return false
			}
			r := slots[rng.Intn(len(slots))]
			if !f.update(r, w[r], false) {
				t.Fatalf("seed %d: well-conditioned replacement (|w_r| %.3g of max %.3g) refused", seed, math.Abs(w[r]), maxW)
			}
			inBasis[basis[r]] = false
			basis[r], inBasis[q] = q, true
			return true
		}

		// Warm up to a basis with structure in L and U, then refactor.
		if !f.factorize(cols, basis) {
			t.Fatalf("seed %d: unit basis singular", seed)
		}
		for k := 0; k < m; k++ {
			if q := m + rng.Intn(3*m); !inBasis[q] {
				replace(q)
			}
			if f.needsRefactor() && !f.factorize(cols, basis) {
				t.Fatalf("seed %d: warm-up basis singular", seed)
			}
		}
		if !f.factorize(cols, basis) {
			t.Fatalf("seed %d: warm-up basis singular", seed)
		}

		updates := 0
		for tries := 0; !f.needsRefactor() && tries < 20*m; tries++ {
			q := m + rng.Intn(3*m)
			if inBasis[q] {
				continue
			}
			if !replace(q) {
				continue
			}
			updates++
			luMatches(t, rng, f, cols, basis, "after update")
		}
		if f.nUpdates() != updates {
			t.Fatalf("seed %d: %d updates applied, factor counts %d", seed, updates, f.nUpdates())
		}
		if !f.needsRefactor() {
			t.Fatalf("seed %d: ran out of fitting columns after %d updates, before the cap", seed, updates)
		}

		// An unstable replacement: the column of slot s plus a 1e-12 trace
		// of slot r's, whose spike is e_s + 1e-12·e_r.
		r, s := rng.Intn(m), rng.Intn(m)
		if r == s {
			s = (s + 1) % m
		}
		bad := append([]entry(nil), cols[basis[s]]...)
		for _, e := range cols[basis[r]] {
			merged := false
			for k := range bad {
				if bad[k].row == e.row {
					bad[k].val += 1e-12 * e.val
					merged = true
				}
			}
			if !merged {
				bad = append(bad, entry{row: e.row, val: 1e-12 * e.val})
			}
		}
		ind = f.ftranSpike(bad, w, ind)
		wr := w[r]
		ok := f.update(r, wr, false)
		clearSpike(w, ind)
		if ok {
			t.Fatalf("seed %d: near-singular replacement (w_r %.3g) accepted", seed, wr)
		}
		luMatches(t, rng, f, cols, basis, "after refused update")
		if !f.factorize(cols, basis) || f.nUpdates() != 0 {
			t.Fatalf("seed %d: refactorization after the refused update failed", seed)
		}
		luMatches(t, rng, f, cols, basis, "after refactorization")
	}
}
