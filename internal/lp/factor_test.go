package lp

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
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

// basisCorpus is one workload's file of window bases under testdata/ (see
// testdata/README.md for how they were captured): each basis is a header
// line "b m" and then m lines, one per basis slot, "n r1 v1 … rn vn" — the
// slot's column as n (constraint row, value) pairs.
type basisCorpus struct {
	cols  [][]entry // every basis's columns, concatenated
	bases [][]int   // per basis, the indices into cols of its slots
	nnz   int
}

func loadBasisCorpus(tb testing.TB, workload string) *basisCorpus {
	tb.Helper()
	fh, err := os.Open(filepath.Join("testdata", "bases-"+workload+".txt.gz"))
	if err != nil {
		tb.Fatal(err)
	}
	defer fh.Close()
	zr, err := gzip.NewReader(fh)
	if err != nil {
		tb.Fatal(err)
	}
	c := &basisCorpus{}
	sc := bufio.NewScanner(zr)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) == 2 && fs[0] == "b" {
			c.bases = append(c.bases, nil)
			continue
		}
		if len(c.bases) == 0 || len(fs) == 0 {
			tb.Fatalf("%s: malformed line %q", workload, sc.Text())
		}
		n, err := strconv.Atoi(fs[0])
		if err != nil || len(fs) != 1+2*n {
			tb.Fatalf("%s: column line with %d fields, want %d", workload, len(fs), 1+2*n)
		}
		col := make([]entry, n)
		for k := range col {
			r, err1 := strconv.Atoi(fs[1+2*k])
			v, err2 := strconv.ParseFloat(fs[2+2*k], 64)
			if err1 != nil || err2 != nil {
				tb.Fatalf("%s: bad entry in %q", workload, sc.Text())
			}
			col[k] = entry{row: r, val: v}
		}
		last := len(c.bases) - 1
		c.bases[last] = append(c.bases[last], len(c.cols))
		c.cols = append(c.cols, col)
		c.nnz += n
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	if len(c.bases) == 0 {
		tb.Fatalf("%s: empty corpus", workload)
	}
	return c
}

// TestFactorizeCorpus factors every captured window basis of the
// benchmark corpus and checks its solves against the dense oracle.
func TestFactorizeCorpus(t *testing.T) {
	for _, w := range []string{"seq-sharded", "closedm1-win10"} {
		c := loadBasisCorpus(t, w)
		rng := rand.New(rand.NewSource(1))
		f := &luFactor{}
		for k, basis := range c.bases {
			f.reset(len(basis))
			if !f.factorize(c.cols, basis) {
				t.Fatalf("%s basis %d: rejected as singular", w, k)
			}
			checkFactorSolves(t, rng, f, c.cols, basis, fmt.Sprintf("%s basis %d", w, k))
		}
	}
}

// BenchmarkFactorize times one factorization of a restored window basis,
// cycling through each workload's corpus with one reused factor, as an
// arena does. ns/op is the time per factorization.
func BenchmarkFactorize(b *testing.B) {
	for _, w := range []string{"seq-sharded", "closedm1-win10"} {
		b.Run(w, func(b *testing.B) {
			c := loadBasisCorpus(b, w)
			f := &luFactor{}
			for _, basis := range c.bases {
				f.reset(len(basis))
				if !f.factorize(c.cols, basis) {
					b.Fatalf("%s: corpus basis is singular", w)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				basis := c.bases[i%len(c.bases)]
				f.reset(len(basis))
				f.factorize(c.cols, basis)
			}
			b.ReportMetric(float64(c.nnz)/float64(len(c.bases)), "nnz/basis")
		})
	}
}

// factorCase is a basis for TestFactorizeWindowBases: slot j holds
// cols[basis[j]], and the columns outside the basis are the pool its
// updates draw from. A singular case must be rejected. chain lists rows
// that only row singletons resolve, with the slot each must pivot on, in
// the order the triangular pass must take them.
type factorCase struct {
	name     string
	m        int
	cols     [][]entry
	basis    []int
	singular bool
	chain    [][2]int // (constraint row, basis slot)
}

// windowModel builds the columns of a window-shaped model: an exactly-one
// row per cell over its candidate sites (λ columns, 1 in the cell's row),
// and two big-G rows per cell pair, G·d ± (xa − xb) ≤ G, where λ enters
// each pair row with its site's offset and d with G = 20. The first m
// columns are unit columns, one per row (artificials on the cell rows,
// slacks on the pair rows); then come each cell's λ columns (site 0
// first) and the pairs' d columns.
func windowModel(rng *rand.Rand, cells, sites, pairs int) (m int, cols [][]entry, lambda [][]int) {
	const G = 20
	m = cells + 2*pairs
	for i := 0; i < m; i++ {
		cols = append(cols, []entry{{row: i, val: 1}})
	}
	type pair struct{ a, b int }
	ps := make([]pair, pairs)
	for p := range ps {
		a := rng.Intn(cells)
		b := (a + 1 + rng.Intn(cells-1)) % cells
		ps[p] = pair{a, b}
	}
	lambda = make([][]int, cells)
	for c := 0; c < cells; c++ {
		for s := 0; s < sites; s++ {
			col := []entry{{row: c, val: 1}}
			off := float64(1 + rng.Intn(9))
			for p, pr := range ps {
				sign := 0.0
				switch c {
				case pr.a:
					sign = 1
				case pr.b:
					sign = -1
				}
				if sign != 0 {
					col = append(col, entry{row: cells + 2*p, val: sign * off}, entry{row: cells + 2*p + 1, val: -sign * off})
				}
			}
			lambda[c] = append(lambda[c], len(cols))
			cols = append(cols, col)
		}
	}
	for p := range ps {
		cols = append(cols, []entry{{row: cells + 2*p, val: G}, {row: cells + 2*p + 1, val: G}})
	}
	return m, cols, lambda
}

// swapIn replaces up to n random unit columns of basis by random columns
// from cols[first:] that the dense oracle keeps nonsingular, leaving a
// kernel for the Markowitz search.
func swapIn(rng *rand.Rand, cols [][]entry, basis []int, first, n int) {
	m := len(basis)
	in := make([]bool, len(cols))
	for _, q := range basis {
		in[q] = true
	}
	rhs := make([]float64, m)
	for tries := 0; n > 0 && tries < 50*m; tries++ {
		s := rng.Intn(m)
		q := first + rng.Intn(len(cols)-first)
		if basis[s] >= m || in[q] {
			continue
		}
		old := basis[s]
		basis[s] = q
		if _, ok := denseBasisSolve(cols, basis, rhs, false); !ok {
			basis[s] = old
			continue
		}
		in[old], in[q] = false, true
		n--
	}
}

func windowBasisCases() []factorCase {
	var cases []factorCase
	identity := func(m int) []int {
		b := make([]int, m)
		for i := range b {
			b[i] = i
		}
		return b
	}
	for _, size := range []struct {
		name                string
		cells, sites, pairs int
		swaps               int
	}{{"small", 6, 3, 5, 4}, {"large", 24, 4, 30, 20}} {
		rng := rand.New(rand.NewSource(int64(size.cells)))
		m, cols, lambda := windowModel(rng, size.cells, size.sites, size.pairs)
		slack := identity(m)
		rng.Shuffle(m, func(a, b int) { slack[a], slack[b] = slack[b], slack[a] })
		cases = append(cases, factorCase{name: "slack-identity-" + size.name, m: m, cols: cols, basis: slack})

		groups := identity(m)
		for c := 0; c < size.cells; c++ {
			groups[c] = lambda[c][0]
		}
		cases = append(cases, factorCase{name: "exactly-one-groups-" + size.name, m: m, cols: cols, basis: groups})

		pairs := append([]int(nil), groups...)
		swapIn(rng, cols, pairs, m, size.swaps)
		cases = append(cases, factorCase{name: "big-G-pairs-" + size.name, m: m, cols: cols, basis: pairs})
	}

	// A dense 6×6 block on rows 0–5 among unit columns; the block's
	// columns also reach a few of the other rows.
	{
		rng := rand.New(rand.NewSource(6))
		const m = 20
		var cols [][]entry
		for i := 0; i < m; i++ {
			cols = append(cols, []entry{{row: i, val: 1}})
		}
		basis := identity(m)
		for {
			cols = cols[:m]
			for j := 0; j < 6; j++ {
				var col []entry
				for i := 0; i < 6; i++ {
					col = append(col, entry{row: i, val: float64(1 + rng.Intn(9))})
				}
				col = append(col, entry{row: 6 + rng.Intn(m-6), val: -3})
				slices.SortFunc(col, func(a, b entry) int { return a.row - b.row })
				cols = append(cols, col)
				basis[j] = m + j
			}
			if _, ok := denseBasisSolve(cols, basis, make([]float64, m), false); ok {
				break
			}
		}
		for j := 0; j < 3*m; j++ {
			cols = append(cols, randSparseCol(rng, m))
		}
		cases = append(cases, factorCase{name: "dense-6x6-kernel", m: m, cols: cols, basis: basis})
	}

	// [[A, 0], [B, K]]: A is a lower bidiagonal chain on rows 0–7 (row t
	// holds chain columns t−1 and t), every chain column also reaches a
	// kernel row (8 or 9), and K is a dense 2×2 block; rows 10–13 carry
	// unit columns. No column is a singleton until the unit columns go,
	// and then still none: only the chain's row singletons, row 0 first,
	// peel it down to K.
	{
		rng := rand.New(rand.NewSource(8))
		const n, m = 8, 14
		var cols [][]entry
		var chain [][2]int
		for t := 0; t < n; t++ {
			col := []entry{{row: t, val: 2}}
			if t+1 < n {
				col = append(col, entry{row: t + 1, val: -1})
			}
			col = append(col, entry{row: n + t%2, val: 1}, entry{row: 10 + t%4, val: 3})
			cols = append(cols, col)
			chain = append(chain, [2]int{t, t})
		}
		cols = append(cols, []entry{{row: n, val: 4}, {row: n + 1, val: 1}}, []entry{{row: n, val: 1}, {row: n + 1, val: 3}})
		for i := 10; i < m; i++ {
			cols = append(cols, []entry{{row: i, val: 1}})
		}
		basis := identity(m)
		for j := 0; j < 3*m; j++ {
			cols = append(cols, randSparseCol(rng, m))
		}
		cases = append(cases, factorCase{name: "row-singleton-chain", m: m, cols: cols, basis: basis, chain: chain})
	}

	// Two unit columns on row 2 and none on row 3: structurally singular.
	{
		const m = 6
		cols := [][]entry{{{row: 0, val: 1}}, {{row: 1, val: 1}}, {{row: 2, val: 1}}, {{row: 2, val: -2}}, {{row: 4, val: 1}}, {{row: 3, val: 1}, {row: 5, val: 1}}}
		cases = append(cases, factorCase{name: "structurally-singular", m: m, cols: cols, basis: identity(m), singular: true})
	}
	// A 3×3 block whose third column is the sum of the first two, among
	// unit columns: every pattern is full, the values are singular.
	{
		const m = 7
		cols := [][]entry{
			{{row: 0, val: 2}, {row: 1, val: 1}, {row: 2, val: 3}, {row: 5, val: 1}},
			{{row: 0, val: 1}, {row: 1, val: 4}, {row: 2, val: 1}},
			{{row: 0, val: 3}, {row: 1, val: 5}, {row: 2, val: 4}, {row: 5, val: 1}},
			{{row: 3, val: 1}}, {{row: 4, val: 1}}, {{row: 5, val: 1}}, {{row: 6, val: 1}},
		}
		cases = append(cases, factorCase{name: "numerically-singular", m: m, cols: cols, basis: identity(m), singular: true})
	}
	return cases
}

// checkFactorSolves fails the test unless f's FTRAN and BTRAN solve the
// basis on a few random sparse right-hand sides with a residual of at most
// 1e-9 of the scale of its terms, and agree with the dense oracle to 1e-9
// of the solution's magnitude.
func checkFactorSolves(t *testing.T, rng *rand.Rand, f *luFactor, cols [][]entry, basis []int, tag string) {
	t.Helper()
	m := f.m
	for rep := 0; rep < 3; rep++ {
		for _, trans := range []bool{false, true} {
			rhs := make([]float64, m)
			for k := 0; k < 1+rng.Intn(4); k++ {
				rhs[rng.Intn(m)] = float64(rng.Intn(9) - 4)
			}
			x := append([]float64(nil), rhs...)
			kind := "FTRAN"
			if trans {
				kind = "BTRAN"
				f.btranDense(x)
			} else {
				f.ftranDense(x)
			}
			// res[k] = (B·x or Bᵀ·y)[k] − rhs[k], with scale[k] the sum of
			// the magnitudes of its terms.
			res, scale := make([]float64, m), make([]float64, m)
			for k := range rhs {
				res[k], scale[k] = -rhs[k], math.Abs(rhs[k])
			}
			for j, q := range basis {
				for _, e := range cols[q] {
					k, v := e.row, x[j]
					if trans {
						k, v = j, x[e.row]
					}
					res[k] += e.val * v
					scale[k] += math.Abs(e.val * v)
				}
			}
			maxScale := slices.Max(scale)
			for k := range res {
				if math.Abs(res[k]) > 1e-9*maxScale {
					t.Fatalf("%s: %s residual %.3g at %d, scale %.3g", tag, kind, res[k], k, maxScale)
				}
			}
			want, ok := denseBasisSolve(cols, basis, rhs, trans)
			if !ok {
				t.Fatalf("%s: the dense oracle finds the basis singular", tag)
			}
			mag := 1.0
			for _, v := range want {
				mag = math.Max(mag, math.Abs(v))
			}
			for k := range want {
				if d := math.Abs(x[k] - want[k]); d > 1e-9*mag {
					t.Fatalf("%s: %s entry %d: LU %.15g, dense %.15g", tag, kind, k, x[k], want[k])
				}
			}
		}
	}
}

// TestFactorizeWindowBases factors window-shaped bases — slack identity
// columns, exactly-one groups and big-G pair rows, a dense kernel, and a
// chain that only row singletons resolve — and checks the solves against
// the dense oracle (checkFactorSolves); then it runs 40 Forrest–Tomlin
// updates on top, checking after each one and refactoring whenever the
// update caps call for it. Singular bases must be rejected.
func TestFactorizeWindowBases(t *testing.T) {
	for _, tc := range windowBasisCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.cols))))
			f := &luFactor{}
			f.reset(tc.m)
			basis := append([]int(nil), tc.basis...)
			ok := f.factorize(tc.cols, basis)
			if tc.singular {
				if ok {
					t.Fatal("singular basis factored")
				}
				return
			}
			if !ok {
				t.Fatal("nonsingular basis rejected")
			}
			// The chain's rows pivot one after another, each on its own
			// slot: the triangular pass took them as row singletons.
			for k, rs := range tc.chain {
				step := f.rpos[rs[0]]
				want := f.rpos[tc.chain[0][0]] + int32(k)
				if step != want || f.pc[step] != int32(rs[1]) {
					t.Fatalf("chain row %d pivots at step %d on slot %d; want step %d, slot %d", rs[0], step, f.pc[step], want, rs[1])
				}
			}
			checkFactorSolves(t, rng, f, tc.cols, basis, "fresh")

			in := make([]bool, len(tc.cols))
			for _, q := range basis {
				in[q] = true
			}
			w := make([]float64, tc.m)
			var ind []int32
			updates := 0
			for tries := 0; updates < 40 && tries < 100*tc.m; tries++ {
				q := rng.Intn(len(tc.cols))
				if in[q] {
					continue
				}
				ind = f.ftranSpike(tc.cols[q], w, ind)
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
				if maxW < 1e-6 {
					clearSpike(w, ind)
					continue
				}
				r := slots[rng.Intn(len(slots))]
				ok := f.update(r, w[r], false)
				clearSpike(w, ind)
				if !ok {
					// Refused as unstable: refactor and force it, as the
					// simplex does.
					if !f.factorize(tc.cols, basis) {
						t.Fatalf("update %d: refactorization failed", updates)
					}
					ind = f.ftranSpike(tc.cols[q], w, ind)
					f.update(r, w[r], true)
					clearSpike(w, ind)
				}
				in[basis[r]] = false
				basis[r], in[q] = q, true
				updates++
				checkFactorSolves(t, rng, f, tc.cols, basis, fmt.Sprintf("update %d", updates))
				if f.needsRefactor() {
					if !f.factorize(tc.cols, basis) {
						t.Fatalf("update %d: refactorization failed", updates)
					}
					checkFactorSolves(t, rng, f, tc.cols, basis, fmt.Sprintf("refactor after update %d", updates))
				}
			}
			if updates < 40 {
				t.Fatalf("only %d updates fit", updates)
			}
		})
	}
}
