package lp

import (
	"math"
	"sync/atomic"
)

// Sparse LU factorization of the simplex basis, with Forrest–Tomlin updates.
//
// The basis matrix B has one column per basis slot i holding the constraint
// column of basis[i]. Window-MILP bases are overwhelmingly sparse — unit
// slack/artificial columns, exactly-one candidate rows and big-G indicator
// rows contribute a handful of nonzeros each — so the factorization and the
// FTRAN/BTRAN solves built on it (ftran.go) run in O(nnz) instead of the
// O(rows²) per pivot the dense explicit inverse paid.
//
// Factorization is Gaussian elimination with Markowitz ordering: each step
// pivots on an entry minimizing (rowCount−1)·(colCount−1) among the lowest
// column counts, subject to a relative magnitude threshold, which keeps
// fill-in near zero on these assignment-structured bases (singleton slack
// columns eliminate for free). The active submatrix is held by columns with
// their values, plus row index lists, and live columns sit in count-bucketed
// lists, so a pivot search reads only the few lowest-count columns and each
// elimination step costs O(nnz touched) — never a scan of all m columns.
//
// A basis change is a Forrest–Tomlin update of U (update below): the
// entering column's partial FTRAN L⁻¹a (row etas applied) replaces the
// leaving step's U column, that step moves to the end of U's triangular
// order, and one row eta eliminates the step's old U row against the rows
// after it. On the benchmark's window bases an update stores about 16
// nonzeros (the new column and its row eta), where a product-form eta held
// the dense spike B⁻¹a, about 56. A fresh factorization replaces the
// updates once their count or their stored nonzeros pass a cap, or when an
// update's new diagonal fails the stability test, bounding both solve work
// and floating-point drift.

const (
	// markowitzThresh accepts a pivot only when its magnitude is at least
	// this fraction of the largest entry in its column (threshold partial
	// pivoting): small enough to let Markowitz choose freely, large enough
	// to bound element growth.
	markowitzThresh = 0.01
	// absPivotTol is the hard floor below which an entry never pivots; a
	// factorization that cannot avoid it reports a singular basis.
	absPivotTol = 1e-11
	// maxUpdates caps the Forrest–Tomlin updates between factorizations.
	maxUpdates = 48
	// updateFillFactor triggers refactorization when the nonzeros the
	// updates stored (replacement U columns and row etas) exceed this
	// multiple of the base factorization's fill.
	updateFillFactor = 4
	// updatePivotTol refuses an update whose new U diagonal is below this
	// fraction of the largest entry of its new U column.
	updatePivotTol = 1e-7
	// updateDriftTol refuses an update whose new U diagonal, computed by the
	// row elimination, differs from its exact value w_r·u_pp by more than
	// this relative amount: the elimination cancelled away the digits the
	// update would rest on.
	updateDriftTol = 1e-6
	// dropTol: an update stores no spike entry or row-eta multiplier of at
	// most this magnitude — the residue of cancellations that the exact
	// arithmetic would have zeroed.
	dropTol = 1e-14
	// rowSlack is the room left after each U row of a factorization for
	// the entries later updates' columns add to it.
	rowSlack = 2
)

// Stats counts simplex-kernel work, for telemetry. Per-arena counts are
// cumulative over the arena's lifetime (Arena.Stats); GlobalStats
// aggregates across all arenas in the process.
type Stats struct {
	Solves    int64 // LP solves completed (cold or warm)
	Pivots    int64 // basis changes, primal and dual
	Refactors int64 // sparse LU factorizations performed
	FillNnz   int64 // total L+U nonzeros produced by those factorizations
	EtaNnz    int64 // update nonzeros (FT column spike + row eta) stored between them
}

var globalStats struct {
	solves, pivots, refactors, fillNnz, etaNnz atomic.Int64
}

// GlobalStats returns process-wide kernel counters, aggregated once per
// completed solve (cheap enough to leave always-on; benchmarks report the
// deltas via b.ReportMetric).
func GlobalStats() Stats {
	return Stats{
		Solves:    globalStats.solves.Load(),
		Pivots:    globalStats.pivots.Load(),
		Refactors: globalStats.refactors.Load(),
		FillNnz:   globalStats.fillNnz.Load(),
		EtaNnz:    globalStats.etaNnz.Load(),
	}
}

// flushGlobal publishes the delta since the last flush to the process-wide
// counters (one batch of atomic adds per solve, not per pivot).
func (f *luFactor) flushGlobal() {
	d := f.stats
	p := f.flushed
	globalStats.solves.Add(d.Solves - p.Solves)
	globalStats.pivots.Add(d.Pivots - p.Pivots)
	globalStats.refactors.Add(d.Refactors - p.Refactors)
	globalStats.fillNnz.Add(d.FillNnz - p.FillNnz)
	globalStats.etaNnz.Add(d.EtaNnz - p.EtaNnz)
	f.flushed = d
}

// uStep is one step of U: the constraint row and basis slot it owns, its
// diagonal, and where its row and column live in the files.
type uStep struct {
	row, slot  int32
	diag       float64
	rbeg, rlen int32
	rcap       int32
	cbeg, clen int32
}

// luFactor holds the factorization P·B·Q = L·R⁻¹·U — the base L, the row
// etas R of the updates since, and the updated U — along with the scratch
// both factorization and solves use. One luFactor lives in each Arena and is
// reused by every solve sharing it.
type luFactor struct {
	m int // basis dimension (= nRows of the model)

	// Elimination order: step k pivoted on constraint row pr[k] and basis
	// slot pc[k].
	pr, pc []int32

	// L multipliers of step k (lptr[k]..lptr[k+1]): elimination subtracted
	// lval × (pivot row k) from row lrow; FTRAN replays the same
	// operations on the right-hand side. lsteps lists the steps that have
	// any multipliers at all — sparse bases eliminate mostly singletons, so
	// the replays walk this short list instead of all m steps.
	lptr   []int32
	lrow   []int32
	lval   []float64
	lsteps []int32

	// U, in its triangular order: u[t] describes the step at position t
	// (the elimination order until the first update moves a step to the
	// end). Its off-diagonal entries are stored twice, each keyed by the
	// constraint row of the other step it pairs with (stable under
	// reordering): the row in urow/uval[rbeg : rbeg+rlen] (capacity rcap)
	// for BTRAN's scatter and the updates' row etas, the column in
	// ucrow/ucval[cbeg : cbeg+clen] for FTRAN's back substitution. An
	// update appends the replacement column at the end of the column file
	// and moves a row that outgrows its capacity to the end of the row file.
	u     []uStep
	urow  []int32
	uval  []float64
	ucrow []int32
	ucval []float64

	// rpos and spos map a constraint row and a basis slot to the position
	// of the step that owns it.
	rpos, spos []int32

	// Row etas, one per update whose eliminated U row had off-diagonals:
	// eta t (rptr[t]..rptr[t+1]) subtracts Σ rval·v[ridx] from v[rtgt[t]],
	// all indices constraint rows.
	rptr []int32
	ridx []int32
	rval []float64
	rtgt []int32

	nUpd   int // updates since the last factorization
	updNnz int // U-column and row-eta nonzeros those updates stored

	// spike is the last ftranSpike's partial result R·L⁻¹·a (row space,
	// before the U solve): the replacement U column of the next update.
	spike []float64
	// Update scratch: work is the row being eliminated (keyed by
	// constraint row, zero between updates), heap the positions still to
	// eliminate, and muRow/muVal the multipliers found; spkRow lists the
	// rows of the new U column.
	work   []float64
	spkRow []int32
	heap   []int32
	muRow  []int32
	muVal  []float64

	// Factorization scratch: the active submatrix by columns with values
	// and by rows as column lists, each a segment (begin, length,
	// capacity) of a flat file: column j at aRow/aVal[cb[j] : cb[j]+cl[j]]
	// (exact), row i at aCol[rb[i] : rb[i]+rl[i]] (may still hold
	// eliminated columns, which readers skip). A segment that outgrows its
	// capacity moves to the end of its file, so factorize allocates only
	// until the files reach the high-water fill of the bases it sees.
	// rowCnt counts a row's live entries. Live columns are chained in
	// doubly linked lists by count (bhead[c] → bnext), so the pivot search
	// starts at the lowest non-empty count.
	aRow       []int32
	aVal       []float64
	aCol       []int32
	cb, cl, cc []int32
	rb, rl, rc []int32
	rowCnt     []int32
	rowDone    []bool
	colDone    []bool
	bhead      []int32
	bnext      []int32
	bprev      []int32
	rowPos     []int32 // column scatter: 1 + file position of a row's entry in the column being updated

	// tmp is the triangular solves' intermediate.
	tmp []float64

	nnzLU int // fill of the current base factorization (L + U + pivots)

	stats   Stats
	flushed Stats
}

// reset sizes the factor for an m-row basis, invalidating any previous
// factorization and update.
func (f *luFactor) reset(m int) {
	f.m = m
	f.pr = growSlice(f.pr, m)
	f.pc = growSlice(f.pc, m)
	f.rpos = growSlice(f.rpos, m)
	f.spos = growSlice(f.spos, m)
	f.tmp = growSlice(f.tmp, m)
	f.spike = growSlice(f.spike, m)
	f.work = growSlice(f.work, m)
	clear(f.work)
	f.lptr = append(f.lptr[:0], 0)
	f.lsteps = f.lsteps[:0]
	f.u = growSlice(f.u, m)
	f.clearUpdates()
}

func (f *luFactor) clearUpdates() {
	f.rptr = append(f.rptr[:0], 0)
	f.ridx = f.ridx[:0]
	f.rval = f.rval[:0]
	f.rtgt = f.rtgt[:0]
	f.nUpd, f.updNnz = 0, 0
}

// nUpdates returns the number of Forrest–Tomlin updates applied since the
// last factorization.
func (f *luFactor) nUpdates() int { return f.nUpd }

// needsRefactor reports whether the updates have outgrown their caps. The
// update cap scales with the basis dimension: refactorizing a small basis
// is nearly free, so tiny bases (single-row knapsack relaxations) refactor
// after a handful of updates and big windows amortize up to maxUpdates.
func (f *luFactor) needsRefactor() bool {
	cap := f.m/2 + 4
	if cap > maxUpdates {
		cap = maxUpdates
	}
	return f.nUpd >= cap || f.updNnz > updateFillFactor*(f.nnzLU+f.m)
}

// factorize computes a fresh P·B·Q = L·U for the basis (slot i holds the
// column of variable basis[i]) and drops every update. It returns false
// when the basis is numerically singular, leaving the factor unusable; the
// caller must then rebuild from a basis it can factor.
func (f *luFactor) factorize(cols [][]entry, basis []int) bool {
	m := f.m
	f.clearUpdates()
	f.lptr = append(f.lptr[:0], 0)
	f.lrow = f.lrow[:0]
	f.lval = f.lval[:0]
	f.lsteps = f.lsteps[:0]
	f.urow = f.urow[:0]
	f.uval = f.uval[:0]

	f.cb, f.cl, f.cc = growSlice(f.cb, m), growSlice(f.cl, m), growSlice(f.cc, m)
	f.rb, f.rl, f.rc = growSlice(f.rb, m), growSlice(f.rl, m), growSlice(f.rc, m)
	f.rowCnt = growSlice(f.rowCnt, m)
	f.rowDone = growSlice(f.rowDone, m)
	f.colDone = growSlice(f.colDone, m)
	f.bhead = growSlice(f.bhead, m+1)
	f.bnext = growSlice(f.bnext, m)
	f.bprev = growSlice(f.bprev, m)
	f.rowPos = growSlice(f.rowPos, m)
	for i := 0; i < m; i++ {
		f.rowCnt[i], f.rl[i], f.rowPos[i] = 0, 0, 0
		f.rowDone[i], f.colDone[i] = false, false
	}
	for c := range f.bhead {
		f.bhead[c] = -1
	}
	// Carve the files at exact pre-counted capacities, then fill them.
	nnz := int32(0)
	for j := 0; j < m; j++ {
		col := cols[basis[j]]
		for _, e := range col {
			f.rowCnt[e.row]++
		}
		n := int32(len(col))
		f.cb[j], f.cl[j], f.cc[j] = nnz, n, n
		nnz += n
	}
	f.aRow = growSlice(f.aRow, int(nnz))
	f.aVal = growSlice(f.aVal, int(nnz))
	f.aCol = growSlice(f.aCol, int(nnz))
	pos := int32(0)
	for i := 0; i < m; i++ {
		f.rb[i], f.rc[i] = pos, f.rowCnt[i]
		pos += f.rowCnt[i]
	}
	for j := 0; j < m; j++ {
		at := f.cb[j]
		for _, e := range cols[basis[j]] {
			f.aRow[at], f.aVal[at] = int32(e.row), e.val
			at++
			f.aCol[f.rb[e.row]+f.rl[e.row]] = int32(j)
			f.rl[e.row]++
		}
		f.bucketAdd(int32(j))
	}

	for step := 0; step < m; step++ {
		pi, pj, ok := f.pickPivot()
		if !ok {
			return false
		}
		f.pr[step], f.pc[step] = int32(pi), int32(pj)
		f.spos[pj] = int32(step)
		f.rowDone[pi] = true
		f.colDone[pj] = true
		f.bucketDel(int32(pj))

		// The pivot column yields the L multipliers; each row it reaches
		// loses column pj from the active matrix.
		pb, pe := f.cb[pj], f.cb[pj]+f.cl[pj]
		var piv float64
		for e := pb; e < pe; e++ {
			if f.aRow[e] == int32(pi) {
				piv = f.aVal[e]
				break
			}
		}
		lStart := len(f.lrow)
		for e := pb; e < pe; e++ {
			i := f.aRow[e]
			if i == int32(pi) {
				continue
			}
			f.lrow = append(f.lrow, i)
			f.lval = append(f.lval, f.aVal[e]/piv)
			f.rowCnt[i]--
		}
		f.u[step].diag = piv
		lRows, lVals := f.lrow[lStart:], f.lval[lStart:]

		// The pivot row yields the U row: every live column it reaches
		// gives up its row-pi entry and takes the rank-one update
		// col −= u × (L column).
		uStart := len(f.urow)
		for e := f.rb[pi]; e < f.rb[pi]+f.rl[pi]; e++ {
			c := f.aCol[e]
			if f.colDone[c] {
				continue
			}
			b, last := f.cb[c], f.cb[c]+f.cl[c]-1
			var u float64
			for k := b; k <= last; k++ {
				if f.aRow[k] == int32(pi) {
					u = f.aVal[k]
					f.aRow[k], f.aVal[k] = f.aRow[last], f.aVal[last]
					break
				}
			}
			f.urow = append(f.urow, c)
			f.uval = append(f.uval, u)
			f.bucketDel(c)
			f.cl[c]--
			if len(lRows) > 0 {
				f.eliminateCol(c, u, lRows, lVals)
			}
			f.bucketAdd(c)
		}
		n := int32(len(f.urow) - uStart)
		f.u[step].rbeg, f.u[step].rlen, f.u[step].rcap = int32(uStart), n, n+rowSlack
		for k := 0; k < rowSlack; k++ {
			f.urow = append(f.urow, -1)
			f.uval = append(f.uval, 0)
		}
		f.lptr = append(f.lptr, int32(len(f.lrow)))
		if len(lRows) > 0 {
			f.lsteps = append(f.lsteps, int32(step))
		}
	}

	f.nnzLU = len(f.lval) + f.buildU() + m
	f.stats.Refactors++
	f.stats.FillNnz += int64(f.nnzLU)
	return true
}

// eliminateCol applies col_c −= u × (L column lRows/lVals) to the live
// column c, appending fill and dropping exact cancellations, and keeps the
// row lists and counts in step.
func (f *luFactor) eliminateCol(c int32, u float64, lRows []int32, lVals []float64) {
	pos := f.rowPos
	for k := f.cb[c]; k < f.cb[c]+f.cl[c]; k++ {
		pos[f.aRow[k]] = k + 1
	}
	for t, i := range lRows {
		d := lVals[t] * u
		if k := pos[i]; k > 0 {
			f.aVal[k-1] -= d
			continue
		}
		if d == 0 {
			continue
		}
		if f.cl[c] == f.cc[c] {
			f.moveCol(c)
		}
		at := f.cb[c] + f.cl[c]
		f.aRow[at], f.aVal[at] = i, -d
		f.cl[c]++
		pos[i] = at + 1
		f.rowAppend(i, c)
		f.rowCnt[i]++
	}
	b := f.cb[c]
	w := b
	for k := b; k < b+f.cl[c]; k++ {
		i := f.aRow[k]
		pos[i] = 0
		if f.aVal[k] == 0 {
			f.rowRemove(i, c)
			f.rowCnt[i]--
			continue
		}
		f.aRow[w], f.aVal[w] = i, f.aVal[k]
		w++
	}
	f.cl[c] = w - b
}

// moveCol moves full column c to the end of its file with room to grow,
// re-marking its rows' scatter positions.
func (f *luFactor) moveCol(c int32) {
	b, n := f.cb[c], f.cl[c]
	nb := int32(len(f.aRow))
	for k := b; k < b+n; k++ {
		f.rowPos[f.aRow[k]] = nb + (k - b) + 1
		f.aRow = append(f.aRow, f.aRow[k])
		f.aVal = append(f.aVal, f.aVal[k])
	}
	for k := n; k < 2*n+4; k++ {
		f.aRow = append(f.aRow, 0)
		f.aVal = append(f.aVal, 0)
	}
	f.cb[c], f.cc[c] = nb, 2*n+4
}

// buildU rekeys the factorization's U rows from basis slots to the
// constraint rows of their steps, transposes them into the column file,
// and sets U's triangular order to the elimination order. It returns U's
// off-diagonal count. cl is dead after elimination and serves as the
// counting scratch.
func (f *luFactor) buildU() int {
	m := f.m
	cnt := f.cl
	clear(cnt[:m])
	nnz := 0
	for k := 0; k < m; k++ {
		us := &f.u[k]
		for e := us.rbeg; e < us.rbeg+us.rlen; e++ {
			c := f.spos[f.urow[e]]
			f.urow[e] = f.pr[c]
			cnt[c]++
		}
		nnz += int(us.rlen)
	}
	upos := int32(0)
	for k := 0; k < m; k++ {
		us := &f.u[k]
		us.row, us.slot = f.pr[k], f.pc[k]
		us.cbeg, us.clen = upos, 0
		upos += cnt[k]
		f.rpos[us.row] = int32(k)
	}
	f.ucrow = growSlice(f.ucrow, int(upos))
	f.ucval = growSlice(f.ucval, int(upos))
	for k := 0; k < m; k++ {
		us := &f.u[k]
		for e := us.rbeg; e < us.rbeg+us.rlen; e++ {
			uc := &f.u[f.rpos[f.urow[e]]]
			at := uc.cbeg + uc.clen
			uc.clen++
			f.ucrow[at] = us.row
			f.ucval[at] = f.uval[e]
		}
	}
	return nnz
}

// bucketAdd links live column j into the list of its count.
func (f *luFactor) bucketAdd(j int32) {
	c := f.cl[j]
	h := f.bhead[c]
	f.bnext[j], f.bprev[j] = h, -1
	if h >= 0 {
		f.bprev[h] = j
	}
	f.bhead[c] = j
}

// bucketDel unlinks column j from the list of its count.
func (f *luFactor) bucketDel(j int32) {
	n, p := f.bnext[j], f.bprev[j]
	if p >= 0 {
		f.bnext[p] = n
	} else {
		f.bhead[f.cl[j]] = n
	}
	if n >= 0 {
		f.bprev[n] = p
	}
}

// rowAppend adds live column c to row i's list. A full row first sheds
// its eliminated columns, then moves to the end of the file if still
// full.
func (f *luFactor) rowAppend(i, c int32) {
	if f.rl[i] == f.rc[i] {
		b := f.rb[i]
		w := b
		for k := b; k < b+f.rl[i]; k++ {
			if x := f.aCol[k]; !f.colDone[x] {
				f.aCol[w] = x
				w++
			}
		}
		n := w - b
		f.rl[i] = n
		if n == f.rc[i] {
			nb := int32(len(f.aCol))
			for k := b; k < b+n; k++ {
				f.aCol = append(f.aCol, f.aCol[k])
			}
			for k := n; k < 2*n+4; k++ {
				f.aCol = append(f.aCol, 0)
			}
			f.rb[i], f.rc[i] = nb, 2*n+4
		}
	}
	f.aCol[f.rb[i]+f.rl[i]] = c
	f.rl[i]++
}

// rowRemove drops live column c from row i's list (an exact cancellation).
func (f *luFactor) rowRemove(i, c int32) {
	last := f.rb[i] + f.rl[i] - 1
	for k := f.rb[i]; k <= last; k++ {
		if f.aCol[k] == c {
			f.aCol[k] = f.aCol[last]
			f.rl[i]--
			return
		}
	}
}

// pickPivot selects the next pivot: a column singleton if one has a usable
// entry, otherwise among the first few live columns of the two lowest
// counts, the entry of minimal (rowCnt−1)·(colCnt−1) whose magnitude
// passes the relative threshold of its column.
func (f *luFactor) pickPivot() (pi, pj int, ok bool) {
	// A singleton pivots with no elimination work and no fill. Crash bases
	// (mostly unit slack and artificial columns) and assignment-structured
	// bases factor almost entirely through this list.
	for j := f.bhead[1]; j >= 0; j = f.bnext[j] {
		if e := f.cb[j]; abs(f.aVal[e]) >= absPivotTol {
			return int(f.aRow[e]), int(j), true
		}
	}
	m := f.m
	minCnt := 2
	for minCnt <= m && f.bhead[minCnt] < 0 {
		minCnt++
	}
	pi, pj = -1, -1
	bestCost := int64(1) << 62
	var bestVal float64
	const maxCand = 8
	cands := 0
	for cnt := minCnt; cnt <= minCnt+1 && cnt <= m && cands < maxCand; cnt++ {
		for j := f.bhead[cnt]; j >= 0 && cands < maxCand; j = f.bnext[j] {
			cands++
			rows := f.aRow[f.cb[j] : f.cb[j]+f.cl[j]]
			vals := f.aVal[f.cb[j] : f.cb[j]+f.cl[j]]
			colMax := 0.0
			for _, v := range vals {
				if abs(v) > colMax {
					colMax = abs(v)
				}
			}
			if colMax < absPivotTol {
				continue
			}
			thresh := markowitzThresh * colMax
			for t, i := range rows {
				v := vals[t]
				if abs(v) < thresh || abs(v) < absPivotTol {
					continue
				}
				cost := int64(f.rowCnt[i]-1) * int64(cnt-1)
				if cost < bestCost || (cost == bestCost && abs(v) > abs(bestVal)) {
					bestCost, bestVal = cost, v
					pi, pj = int(i), int(j)
				}
			}
		}
	}
	if pi >= 0 {
		return pi, pj, true
	}
	return f.pickPivotFallback()
}

// pickPivotFallback scans the whole live submatrix for the entry of
// largest magnitude — the last resort when no candidate column offers a
// threshold-passing pivot. Failing here means the basis is singular (a
// zero column slipped into it, or everything cancelled numerically).
func (f *luFactor) pickPivotFallback() (pi, pj int, ok bool) {
	best := absPivotTol
	pi, pj = -1, -1
	for j := 0; j < f.m; j++ {
		if f.colDone[j] {
			continue
		}
		for e := f.cb[j]; e < f.cb[j]+f.cl[j]; e++ {
			if v := abs(f.aVal[e]); v >= best {
				best, pi, pj = v, int(f.aRow[e]), j
			}
		}
	}
	return pi, pj, pi >= 0
}

// update replaces the column of basis slot r by the entering column whose
// ftranSpike was the last one run (its partial result waits in f.spike;
// wr is the full spike's entry in slot r, the pivot of the basis change).
// It returns false, leaving the factorization untouched, when the update
// would be unstable — the caller must then refactorize, recompute the
// spike and retry. force skips the stability test; callers set it when the
// factorization is already fresh, where refusing would loop (the ratio
// test has bounded the pivot away from zero).
func (f *luFactor) update(r int, wr float64, force bool) bool {
	p := f.spos[r]
	up := f.u[p]
	spike, work := f.spike, f.work

	// Row eta: eliminate row p's off-diagonals against the rows after p,
	// in triangular order (the heap yields the smallest pending position),
	// scattering each multiplier's U row into the work row. The new
	// diagonal is the spike's row-p entry minus the same combination of
	// its other entries.
	f.muRow, f.muVal = f.muRow[:0], f.muVal[:0]
	h := f.heap[:0]
	for e := up.rbeg; e < up.rbeg+up.rlen; e++ {
		i := f.urow[e]
		work[i] = f.uval[e]
		h = heapPush(h, f.rpos[i])
	}
	diag := spike[up.row]
	for len(h) > 0 {
		var t int32
		t, h = heapPop(h)
		uc := &f.u[t]
		x := work[uc.row]
		work[uc.row] = 0
		if abs(x) <= dropTol {
			continue // cancelled, or a duplicate heap entry already taken
		}
		x /= uc.diag
		f.muRow = append(f.muRow, uc.row)
		f.muVal = append(f.muVal, x)
		diag -= x * spike[uc.row]
		for e := uc.rbeg; e < uc.rbeg+uc.rlen; e++ {
			i := f.urow[e]
			if work[i] == 0 {
				h = heapPush(h, f.rpos[i])
			}
			work[i] -= x * f.uval[e]
		}
	}
	f.heap = h

	// The new U column: the spike's entries off row p, with their largest
	// magnitude for the stability test.
	f.spkRow = f.spkRow[:0]
	maxA := 0.0
	for i, v := range spike[:f.m] {
		if v == 0 || int32(i) == up.row {
			continue
		}
		if a := abs(v); a > dropTol {
			f.spkRow = append(f.spkRow, int32(i))
			maxA = math.Max(maxA, a)
		}
	}

	// Stability: refuse a new diagonal that is tiny against its column, or
	// that the elimination could not reproduce — its exact value is
	// w_r·u_pp (det B' = w_r·det B).
	want := wr * up.diag
	if !force {
		if abs(diag) < updatePivotTol*maxA || abs(diag-want) > updateDriftTol*abs(want) {
			return false
		}
	} else if diag == 0 {
		diag = want
	}

	// Commit the row eta, then drop row p's off-diagonals from their
	// columns and the old column p's entries from their rows.
	if len(f.muRow) > 0 {
		f.ridx = append(f.ridx, f.muRow...)
		f.rval = append(f.rval, f.muVal...)
		f.rptr = append(f.rptr, int32(len(f.ridx)))
		f.rtgt = append(f.rtgt, up.row)
	}
	for e := up.rbeg; e < up.rbeg+up.rlen; e++ {
		f.colDrop(&f.u[f.rpos[f.urow[e]]], up.row)
	}
	for e := up.cbeg; e < up.cbeg+up.clen; e++ {
		f.rowDrop(&f.u[f.rpos[f.ucrow[e]]], up.row)
	}

	// The spike becomes the step's column, appended at the end of the
	// file, and the step moves to the end of the triangular order.
	up.rlen = 0
	up.diag = diag
	up.cbeg = int32(len(f.ucrow))
	for _, i := range f.spkRow {
		v := spike[i]
		f.ucrow = append(f.ucrow, i)
		f.ucval = append(f.ucval, v)
		f.rowPush(&f.u[f.rpos[i]], up.row, v)
	}
	up.clen = int32(len(f.ucrow)) - up.cbeg
	last := int32(f.m - 1)
	copy(f.u[p:last], f.u[p+1:])
	f.u[last] = up
	for t := p; t <= last; t++ {
		f.rpos[f.u[t].row], f.spos[f.u[t].slot] = t, t
	}

	stored := int(up.clen) + len(f.muRow)
	f.nUpd++
	f.updNnz += stored
	f.stats.EtaNnz += int64(stored)
	return true
}

// colDrop removes row's entry from U column us.
func (f *luFactor) colDrop(us *uStep, row int32) {
	last := us.cbeg + us.clen - 1
	for e := us.cbeg; e <= last; e++ {
		if f.ucrow[e] == row {
			f.ucrow[e], f.ucval[e] = f.ucrow[last], f.ucval[last]
			us.clen--
			return
		}
	}
}

// rowDrop removes the entry keyed by row from U row us.
func (f *luFactor) rowDrop(us *uStep, row int32) {
	last := us.rbeg + us.rlen - 1
	for e := us.rbeg; e <= last; e++ {
		if f.urow[e] == row {
			f.urow[e], f.uval[e] = f.urow[last], f.uval[last]
			us.rlen--
			return
		}
	}
}

// rowPush appends entry (row, v) to U row us, first moving a full row to
// the end of the file with room to grow.
func (f *luFactor) rowPush(us *uStep, row int32, v float64) {
	if us.rlen == us.rcap {
		nb := int32(len(f.urow))
		for e := us.rbeg; e < us.rbeg+us.rlen; e++ {
			f.urow = append(f.urow, f.urow[e])
			f.uval = append(f.uval, f.uval[e])
		}
		for e := us.rlen; e < 2*us.rlen+4; e++ {
			f.urow = append(f.urow, 0)
			f.uval = append(f.uval, 0)
		}
		us.rbeg, us.rcap = nb, 2*us.rlen+4
	}
	f.urow[us.rbeg+us.rlen], f.uval[us.rbeg+us.rlen] = row, v
	us.rlen++
}

// heapPush adds position t to the binary min-heap h.
func heapPush(h []int32, t int32) []int32 {
	h = append(h, t)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up] <= h[i] {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	return h
}

// heapPop removes and returns the smallest position of the min-heap h.
func heapPop(h []int32) (int32, []int32) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, small := 2*i+1, i
		if l < n && h[l] < h[small] {
			small = l
		}
		if l+1 < n && h[l+1] < h[small] {
			small = l + 1
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top, h
}

func abs(x float64) float64 { return math.Abs(x) }
