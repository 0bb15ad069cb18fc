package lp

// Sparse FTRAN/BTRAN over the LU factorization and its Forrest–Tomlin
// updates in factor.go.
//
// FTRAN solves B·x = b (constraint-row space → basis-slot space) as L, then
// the row etas in update order, then U; BTRAN solves Bᵀ·y = c (slot space →
// row space) as Uᵀ, then the row etas transposed in reverse order, then Lᵀ.
// Both run in O(m + nnz) — the lower-triangular replay skips steps whose
// right-hand side is still zero, so a hyper-sparse RHS (an entering column
// with three nonzeros, a unit vector for a dual pivot row) touches only the
// entries it can reach, and the results carry indexed nonzero lists so the
// ratio test and the basic-value update iterate nonzeros instead of dense
// m-vectors.

// ftranDense solves B·x = v in place: v enters indexed by constraint row,
// leaves indexed by basis slot.
func (f *luFactor) ftranDense(v []float64) {
	f.ftranL(v)
	f.ftranU(v)
}

// ftranL applies L⁻¹ and then the row etas: the partial FTRAN whose result
// an update stores as the replacement U column.
func (f *luFactor) ftranL(v []float64) {
	// Lower replay in elimination order: rows reduced during elimination
	// get the same multiples of the pivot row subtracted. Only the steps
	// with multipliers (lsteps) are visited, and a step whose pivot-row
	// value is zero moves nothing — the hyper-sparse skip. (Here and in the
	// loops below, the slice headers are hoisted into locals and vals is
	// cut to len(rows) so the compiler drops the inner bounds checks.)
	lrow, lval := f.lrow, f.lval
	for _, k := range f.lsteps {
		t := v[f.pr[k]]
		if t == 0 {
			continue
		}
		rows := lrow[f.lptr[k]:f.lptr[k+1]]
		vals := lval[f.lptr[k]:f.lptr[k+1]]
		vals = vals[:len(rows)]
		for e, i := range rows {
			v[i] -= vals[e] * t
		}
	}
	ridx, rval := f.ridx, f.rval
	for t, tgt := range f.rtgt {
		rows := ridx[f.rptr[t]:f.rptr[t+1]]
		vals := rval[f.rptr[t]:f.rptr[t+1]]
		vals = vals[:len(rows)]
		acc := 0.0
		for k, i := range rows {
			acc += vals[k] * v[i]
		}
		v[tgt] -= acc
	}
}

// ftranU is the back substitution on U in its triangular order, column-
// scatter form: once step c's value is known, subtract its contribution
// from every earlier row carrying column c. A step whose right-hand side is
// zero yields zero and scatters nothing — its whole U column is skipped.
func (f *luFactor) ftranU(v []float64) {
	m := f.m
	u, tmp := f.u[:m], f.tmp[:m]
	ucrow, ucval := f.ucrow, f.ucval
	for t := m - 1; t >= 0; t-- {
		us := &u[t]
		x := v[us.row]
		if x == 0 {
			tmp[t] = 0
			continue
		}
		x /= us.diag
		tmp[t] = x
		rows := ucrow[us.cbeg : us.cbeg+us.clen]
		vals := ucval[us.cbeg : us.cbeg+us.clen]
		vals = vals[:len(rows)]
		for k, i := range rows {
			v[i] -= vals[k] * x
		}
	}
	for t := range u {
		v[u[t].slot] = tmp[t]
	}
}

// ftranSpike solves B·w = A_col for a sparse constraint column. w must be
// zero on entry; the result is left in w with its nonzero slots appended
// to ind (returned). The list is what keeps the downstream ratio test and
// xB update O(nnz) instead of O(m). The partial result before the U solve
// is kept for a following update.
func (f *luFactor) ftranSpike(col []entry, w []float64, ind []int32) []int32 {
	for _, e := range col {
		w[e.row] += e.val
	}
	f.ftranL(w)
	copy(f.spike, w[:f.m])
	f.ftranU(w)
	ind = ind[:0]
	for i := 0; i < f.m; i++ {
		if w[i] != 0 {
			ind = append(ind, int32(i))
		}
	}
	return ind
}

// clearSpike rezeroes w using its nonzero list.
func clearSpike(w []float64, ind []int32) {
	for _, i := range ind {
		w[i] = 0
	}
}

// btranDense solves Bᵀ·y = v in place: v enters indexed by basis slot,
// leaves indexed by constraint row.
func (f *luFactor) btranDense(v []float64) { f.btran(v, 0) }

// btran is btranDense for a right-hand side that is zero on the slots of
// the steps before position t0 of U's triangular order, which the Uᵀ solve
// then skips.
func (f *luFactor) btran(v []float64, t0 int) {
	m := f.m
	// Uᵀ forward solve in triangular order, scatter form by the rows of U
	// (row k of U is column k of Uᵀ), keyed by constraint row: once step
	// k's value is known it is subtracted from every later step its row
	// reaches, and a zero step scatters nothing. Each step's value lands on
	// its own constraint row, which is where the result belongs.
	u, tmp := f.u[:m], f.tmp
	urow, uval := f.urow, f.uval
	for t := range u {
		tmp[u[t].row] = v[u[t].slot]
	}
	for t := t0; t < m; t++ {
		us := &u[t]
		x := tmp[us.row]
		if x == 0 {
			continue
		}
		x /= us.diag
		tmp[us.row] = x
		rows := urow[us.rbeg : us.rbeg+us.rlen]
		vals := uval[us.rbeg : us.rbeg+us.rlen]
		vals = vals[:len(rows)]
		for k, i := range rows {
			tmp[i] -= vals[k] * x
		}
	}
	copy(v[:m], tmp[:m])
	// Row etas transposed, newest first: each spreads its target row's
	// value back onto the rows it combined.
	ridx, rval := f.ridx, f.rval
	for t := len(f.rtgt) - 1; t >= 0; t-- {
		x := v[f.rtgt[t]]
		if x == 0 {
			continue
		}
		rows := ridx[f.rptr[t]:f.rptr[t+1]]
		vals := rval[f.rptr[t]:f.rptr[t+1]]
		vals = vals[:len(rows)]
		for k, i := range rows {
			v[i] -= vals[k] * x
		}
	}
	// Lᵀ replay in reverse elimination order: the pivot row of step k
	// absorbs the multipliers times the rows they fed during elimination.
	for s := len(f.lsteps) - 1; s >= 0; s-- {
		k := f.lsteps[s]
		acc := 0.0
		for e := f.lptr[k]; e < f.lptr[k+1]; e++ {
			acc += f.lval[e] * v[f.lrow[e]]
		}
		if acc != 0 {
			v[f.pr[k]] -= acc
		}
	}
}

// btranUnit solves Bᵀ·ρ = e_slot into rho (zeroed here first), yielding
// the constraint-row-space vector whose dot with a column gives that
// column's entry in basis row `slot` — the dual simplex pivot row.
func (f *luFactor) btranUnit(slot int, rho []float64) {
	clear(rho)
	rho[slot] = 1
	f.btran(rho, int(f.spos[slot]))
}
