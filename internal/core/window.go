package core

import (
	"vm1place/internal/geom"
	"vm1place/internal/layout"
	"vm1place/internal/netlist"
	"vm1place/internal/objective"
)

// cand is one SCP candidate for a movable cell: a location and orientation
// (the paper's λ_c^k with its x_c^k, y_c^k, f_c^k).
type cand struct {
	site, row int
	flip      bool
}

// window is one MILP subproblem: the movable cells fully inside a window
// rectangle, their candidates, and the nets/pairs they touch.
//
// A window is built in two stages: buildGeom captures everything
// derivable from the window's own tile (movable set, blocked sites,
// candidates) — quantities that are invariant under moves in *other*
// windows, because a cell fully inside one tile appears in no other
// tile's bucket and straddlers are immovable for the whole pass.
// buildNetsPairs then resolves net terminals, which may live anywhere on
// the die, so the DistOpt scheduler (winSched) orders it against the
// commits of the windows sharing its nets.
//
// Windows are pooled (solverPool.getWindow): all per-window storage is
// carved from slabs owned by the struct and reclaimed by reset(), so a
// steady-state build allocates nothing.
type window struct {
	p   *layout.Placement // read-only snapshot during parallel solves
	prm Params
	// rule is the pair rule, resolved once per build so pair tests and
	// model assembly never re-resolve it on the hot path.
	rule pairRule

	s0, s1 int // site range [s0, s1)
	r0, r1 int // row range [r0, r1)

	movable []int    // instance indices
	cand    [][]cand // candidates per movable cell
	curCand []int    // index of the input-placement candidate per cell
	blocked []bool   // window sites blocked by non-movable cells

	nets  []*winNet
	pairs []*winPair

	// sv is the per-worker solve workspace threaded from DistOpt for the
	// duration of one solve; solve()/buildModel lazily create a private one
	// when unset (standalone and test use).
	sv *winSolver

	// Pooled backing stores, reclaimed by reset(). Carves use full-capacity
	// (three-index) slices, so a slab growing later never aliases an
	// earlier carve; carves made before a slab reallocation simply keep the
	// old backing array alive until the next reset.
	candSlab []cand
	i64Slab  []int64
	intSlab  []int
	netSlab  []winNet
	pairSlab []winPair
	scoreBuf []scoredPair
	supMark  []bool // support membership scratch of one pair
	netSeen  map[int]*winNet
}

// winPin is a net terminal as seen by the window MILP: movable (cell index
// within window plus per-candidate geometry) or fixed (single-element
// geometry). The embedded view's Lambda stays nil; pinView supplies the λ
// ids during model assembly.
type winPin struct {
	objective.PinView
	cell int // index into movable, or -1 when fixed
	conn netlist.Conn
}

// winNet is a net with at least one movable pin.
type winNet struct {
	ni      int
	terms   []winPin // every signal terminal, in connection order
	movable []winPin // the subset with cell >= 0
	// Fixed-terminal extremes folded into bounds (valid iff hasFixed).
	hasFixed                   bool
	fxMin, fxMax, fyMin, fyMax int64
}

// winPair is an eligible pin pair (p, q) of one net. alpha caches the
// objective's PairAlpha for the net (== Params.Alpha bitwise for uniform
// objectives), so the MILP objective coefficient and the greedy/objective
// arithmetic agree without per-evaluation lookups.
//
// supP and supQ are the pins' supports: the candidates of the pin that
// realize the pair with some candidate of the other pin. Each is nil when
// it needs no support row: the pin is fixed, or every candidate is in it.
type winPair struct {
	net        *winNet
	p, q       winPin
	alpha      float64
	supP, supQ []int
}

// occKey indexes window occupancy cells.
func (w *window) occIdx(row, site int) int {
	return (row-w.r0)*(w.s1-w.s0) + (site - w.s0)
}

// reset reclaims all pooled storage, leaving the window ready for a fresh
// buildGeom. Slab capacities (and the net-dedup map's buckets) survive, so
// a recycled window builds without allocating.
func (w *window) reset() {
	w.movable = w.movable[:0]
	w.cand = w.cand[:0]
	w.curCand = w.curCand[:0]
	w.nets = w.nets[:0]
	w.pairs = w.pairs[:0]
	w.candSlab = w.candSlab[:0]
	w.i64Slab = w.i64Slab[:0]
	w.intSlab = w.intSlab[:0]
	w.netSlab = w.netSlab[:0]
	w.pairSlab = w.pairSlab[:0]
	w.scoreBuf = w.scoreBuf[:0]
	clear(w.netSeen)
	w.sv = nil
}

// carve64 returns an n-element full-capacity slice carved from the int64
// slab. A reallocation resets the slab; earlier carves keep the old array.
func (w *window) carve64(n int) []int64 {
	l := len(w.i64Slab)
	if l+n > cap(w.i64Slab) {
		c := 2 * (l + n)
		if c < 4096 {
			c = 4096
		}
		w.i64Slab = make([]int64, 0, c)
		l = 0
	}
	w.i64Slab = w.i64Slab[:l+n]
	return w.i64Slab[l : l+n : l+n]
}

// carveInt is carve64 for the int slab.
func (w *window) carveInt(n int) []int {
	l := len(w.intSlab)
	if l+n > cap(w.intSlab) {
		c := 2 * (l + n)
		if c < 2048 {
			c = 2048
		}
		w.intSlab = make([]int, 0, c)
		l = 0
	}
	w.intSlab = w.intSlab[:l+n]
	return w.intSlab[l : l+n : l+n]
}

// buildWindow constructs the complete subproblem for the window rectangle
// in one shot (geometry plus nets/pairs). insts must contain every instance
// whose rect intersects the rectangle (a superset is fine). allowMove/
// allowFlip select the DistOpt pass mode. DistOpt itself calls the two
// stages separately to pipeline families; this wrapper serves standalone
// and test use.
func buildWindow(p *layout.Placement, prm Params, rect geom.Rect, ps ParamSet,
	insts []int, allowMove, allowFlip bool) *window {
	w := &window{}
	w.buildGeom(p, prm, rect, ps, insts, allowMove, allowFlip)
	w.buildNetsPairs()
	return w
}

// buildGeom constructs the window-local stage of the subproblem: movable
// set, blocked sites, candidates and candidate costs. Everything read here
// lives inside the window's instance bucket, so the result is invariant
// under concurrent optimization of other windows whose tiles are disjoint
// (their movable cells are not in this bucket; shared straddlers never
// move). The window is reset first, so pooled windows can be rebuilt
// directly.
func (w *window) buildGeom(p *layout.Placement, prm Params, rect geom.Rect, ps ParamSet,
	insts []int, allowMove, allowFlip bool) {
	w.reset()
	w.p, w.prm = p, prm
	w.rule = newPairRule(prm, p.Tech)
	w.s0, w.s1, w.r0, w.r1 = windowSpan(p, rect)
	if w.s1 <= w.s0 || w.r1 <= w.r0 {
		w.blocked = w.blocked[:0]
		return
	}

	// Blocked sites: cells intersecting but not fully inside the window.
	w.blocked = grown(w.blocked, (w.r1-w.r0)*(w.s1-w.s0))
	clear(w.blocked)
	blocked := w.blocked
	for _, i := range insts {
		if insideSpan(p, i, w.s0, w.s1, w.r0, w.r1) {
			w.movable = append(w.movable, i)
			continue
		}
		wi := p.Design.Insts[i].Master.WidthSites
		row, site := p.Row[i], p.SiteX[i]
		if row < w.r0 || row >= w.r1 {
			continue
		}
		for s := maxInt(site, w.s0); s < minInt(site+wi, w.s1); s++ {
			blocked[w.occIdx(row, s)] = true
		}
	}

	// Candidates.
	lx, ly := ps.LX, ps.LY
	if !allowMove {
		lx, ly = 0, 0
	}
	w.cand = grown(w.cand, len(w.movable))
	w.curCand = grown(w.curCand, len(w.movable))
	for ci, i := range w.movable {
		wi := p.Design.Insts[i].Master.WidthSites
		curSite, curRow, curFlip := p.SiteX[i], p.Row[i], p.Flip[i]
		flips := [2]bool{curFlip, true}
		nf := 1
		if allowFlip {
			flips = [2]bool{false, true}
			nf = 2
		}
		start := len(w.candSlab)
		cur := -1
		for r := curRow - ly; r <= curRow+ly; r++ {
			if r < w.r0 || r >= w.r1 {
				continue
			}
			for s := curSite - lx; s <= curSite+lx; s++ {
				if s < w.s0 || s+wi > w.s1 {
					continue
				}
				hitsBlocked := false
				for ss := s; ss < s+wi; ss++ {
					if blocked[w.occIdx(r, ss)] {
						hitsBlocked = true
						break
					}
				}
				if hitsBlocked {
					continue
				}
				for fi := 0; fi < nf; fi++ {
					f := flips[fi]
					if s == curSite && r == curRow && f == curFlip {
						cur = len(w.candSlab) - start
					}
					w.candSlab = append(w.candSlab, cand{site: s, row: r, flip: f})
				}
			}
		}
		if cur == -1 {
			// The current position must always be available (fixed cells
			// cannot overlap it). Guard against accounting bugs by adding
			// it explicitly.
			cur = len(w.candSlab) - start
			w.candSlab = append(w.candSlab, cand{site: curSite, row: curRow, flip: curFlip})
		}
		w.cand[ci] = w.candSlab[start:len(w.candSlab):len(w.candSlab)]
		w.curCand[ci] = cur
	}
}

// windowSpan clamps a window rectangle to the die's site grid: sites
// [s0, s1) of rows [r0, r1). The span is empty when s1 <= s0 or r1 <= r0.
func windowSpan(p *layout.Placement, rect geom.Rect) (s0, s1, r0, r1 int) {
	t := p.Tech
	s0 = max(int(rect.XLo/t.SiteWidth), 0)
	s1 = min(int(rect.XHi/t.SiteWidth), p.NumSites)
	r0 = max(int(rect.YLo/t.RowHeight), 0)
	r1 = min(int(rect.YHi/t.RowHeight), p.NumRows)
	return s0, s1, r0, r1
}

// insideSpan reports whether instance i lies fully inside the span — the
// predicate that makes a cell movable in a window.
func insideSpan(p *layout.Placement, i, s0, s1, r0, r1 int) bool {
	row, site := p.Row[i], p.SiteX[i]
	return row >= r0 && row < r1 && site >= s0 &&
		site+p.Design.Insts[i].Master.WidthSites <= s1
}

// buildNetsPairs resolves the nets and eligible pin pairs touching the
// movable cells. Net terminals may sit anywhere on the die, so this stage
// must run against the placement state the window will be solved on: the
// DistOpt scheduler orders it after the commits of every earlier-family
// window that shares a net with this one.
func (w *window) buildNetsPairs() {
	if len(w.movable) == 0 {
		return
	}
	w.collectNetsAndPairs()
}

// cellOf maps an instance to its movable index within the window, or -1.
func (w *window) cellOf(inst int) int {
	for ci, i := range w.movable {
		if i == inst {
			return ci
		}
	}
	return -1
}

// makePin builds the winPin view of a connection: the pin's geometry at
// each candidate of its movable cell, or at its placed location when
// fixed. Geometry arrays are carved from the window slabs.
func (w *window) makePin(c netlist.Conn) winPin {
	p := w.p
	wp := winPin{cell: w.cellOf(c.Inst), conn: c}
	n := 1
	if wp.cell >= 0 {
		n = len(w.cand[wp.cell])
	}
	b := w.carve64(5 * n)
	wp.CenterX = b[0*n : 1*n : 1*n]
	wp.CenterY = b[1*n : 2*n : 2*n]
	wp.AlignX = b[2*n : 3*n : 3*n]
	wp.ExtLo = b[3*n : 4*n : 4*n]
	wp.ExtHi = b[4*n : 5*n : 5*n]
	wp.RowOf = w.carveInt(n)
	for k := range n {
		site, row, flip := p.SiteX[c.Inst], p.Row[c.Inst], p.Flip[c.Inst]
		if wp.cell >= 0 {
			cd := w.cand[wp.cell][k]
			site, row, flip = cd.site, cd.row, cd.flip
		}
		g, cy := pinGeomAt(p, c, site, row, flip)
		wp.CenterX[k], wp.CenterY[k], wp.AlignX[k] = g.CenterX, cy, g.AlignX
		wp.ExtLo[k], wp.ExtHi[k], wp.RowOf[k] = g.ExtLo, g.ExtHi, g.Row
	}
	return wp
}

// collectNetsAndPairs gathers the nets touching movable cells, their fixed
// extremes, and the prunable pin pairs.
func (w *window) collectNetsAndPairs() {
	p := w.p
	d := p.Design
	if w.netSeen == nil {
		w.netSeen = map[int]*winNet{}
	}
	seen := w.netSeen
	for _, i := range w.movable {
		for _, ni := range d.Insts[i].PinNets {
			if ni < 0 || d.Nets[ni].IsClock || seen[ni] != nil {
				continue
			}
			wn := w.buildNet(ni)
			seen[ni] = wn
			w.nets = append(w.nets, wn)
		}
	}
	for _, wn := range w.nets {
		w.buildPairs(wn)
	}
}

// newNet carves a winNet from the net slab, reusing the entry's terminal
// slices when the slot has served a previous window.
func (w *window) newNet(ni int) *winNet {
	if len(w.netSlab) < cap(w.netSlab) {
		w.netSlab = w.netSlab[:len(w.netSlab)+1]
	} else {
		w.netSlab = append(w.netSlab, winNet{})
	}
	wn := &w.netSlab[len(w.netSlab)-1]
	*wn = winNet{ni: ni, terms: wn.terms[:0], movable: wn.movable[:0]}
	wn.fxMin, wn.fyMin = int64(1)<<62, int64(1)<<62
	wn.fxMax, wn.fyMax = -(int64(1) << 62), -(int64(1) << 62)
	return wn
}

// newPair carves a winPair from the pair slab.
func (w *window) newPair(wn *winNet, p, q winPin, supP, supQ []int) *winPair {
	if len(w.pairSlab) < cap(w.pairSlab) {
		w.pairSlab = w.pairSlab[:len(w.pairSlab)+1]
	} else {
		w.pairSlab = append(w.pairSlab, winPair{})
	}
	pr := &w.pairSlab[len(w.pairSlab)-1]
	*pr = winPair{net: wn, p: p, q: q, alpha: w.rule.obj.PairAlpha(w.rule.w, wn.ni), supP: supP, supQ: supQ}
	return pr
}

func (w *window) buildNet(ni int) *winNet {
	p := w.p
	d := p.Design
	wn := w.newNet(ni)
	addFixed := func(x, y int64) {
		wn.hasFixed = true
		if x < wn.fxMin {
			wn.fxMin = x
		}
		if x > wn.fxMax {
			wn.fxMax = x
		}
		if y < wn.fyMin {
			wn.fyMin = y
		}
		if y > wn.fyMax {
			wn.fyMax = y
		}
	}
	d.Nets[ni].ForEachConn(func(c netlist.Conn) {
		wp := w.makePin(c)
		wn.terms = append(wn.terms, wp)
		if wp.cell >= 0 {
			wn.movable = append(wn.movable, wp)
		} else {
			addFixed(wp.CenterX[0], wp.CenterY[0])
		}
	})
	for _, pi := range d.Nets[ni].Ports {
		addFixed(p.PortXY[pi].X, p.PortXY[pi].Y)
	}
	return wn
}

// maxPairsPerNet bounds the pair variables contributed by one net; pairs
// are kept by priority (movable-movable first, then smallest current row
// distance), which keeps the MILP compact on high-fanout nets.
const maxPairsPerNet = 16

// scoredPair ranks a candidate pair during buildPairs: terminal indices
// into winNet.terms plus the selection keys.
type scoredPair struct {
	i, j  int
	mm    bool // movable-movable
	rdist int  // current row distance
}

// buildPairs enumerates the eligible (movable, movable) and (movable,
// fixed-pin) pairs of a net, pruning pairs that cannot possibly align or
// overlap under any candidate choice: first by the objective's range test,
// then, for the pairs kept, by their supports. A kept pair with an empty
// support is not built; it would score 0 under every assignment. The
// terminal views built by buildNet are reused directly (ports are excluded
// there — they are not M1 pins).
func (w *window) buildPairs(wn *winNet) {
	terms := wn.terms
	cands := w.scoreBuf[:0]
	for i := 0; i < len(terms); i++ {
		for j := i + 1; j < len(terms); j++ {
			a, b := terms[i], terms[j]
			if a.conn.Inst == b.conn.Inst {
				continue
			}
			if a.cell < 0 && b.cell < 0 {
				continue // fixed-fixed pairs are constants
			}
			if !w.rule.feasible(a.PinView, b.PinView) {
				continue
			}
			ra := w.p.Row[a.conn.Inst]
			rb := w.p.Row[b.conn.Inst]
			rd := ra - rb
			if rd < 0 {
				rd = -rd
			}
			cands = append(cands, scoredPair{
				i:     i,
				j:     j,
				mm:    a.cell >= 0 && b.cell >= 0,
				rdist: rd,
			})
		}
	}
	if len(cands) > maxPairsPerNet {
		for i := 0; i < len(cands); i++ {
			for j := i + 1; j < len(cands); j++ {
				better := (cands[j].mm && !cands[i].mm) ||
					(cands[j].mm == cands[i].mm && cands[j].rdist < cands[i].rdist)
				if better {
					cands[i], cands[j] = cands[j], cands[i]
				}
			}
		}
		cands = cands[:maxPairsPerNet]
	}
	for _, c := range cands {
		p, q := terms[c.i], terms[c.j]
		if supP, supQ, ok := w.support(p, q); ok {
			w.pairs = append(w.pairs, w.newPair(wn, p, q, supP, supQ))
		}
	}
	w.scoreBuf = cands[:0]
}

// support finds the candidates of p and of q that realize the pair with
// some candidate of the other pin, under the full pair rule (row gate
// included). ok is false when no combination realizes it. A side that
// needs no support row (fixed, or every candidate realizes the pair) gets
// nil; the others are carved from the int slab.
func (w *window) support(p, q winPin) (supP, supQ []int, ok bool) {
	np, nq := len(p.RowOf), len(q.RowOf)
	w.supMark = grown(w.supMark, np+nq)
	inP, inQ := w.supMark[:np], w.supMark[np:]
	clear(w.supMark)
	nP, nQ := 0, 0
	for k := range np {
		a := p.At(k)
		for k2 := range nq {
			if inP[k] && inQ[k2] {
				continue
			}
			if hit, _ := w.rule.eval(a, q.At(k2)); hit {
				if !inP[k] {
					inP[k] = true
					nP++
				}
				if !inQ[k2] {
					inQ[k2] = true
					nQ++
				}
			}
		}
	}
	if nP == 0 {
		return nil, nil, false
	}
	return w.supportList(p, inP, nP), w.supportList(q, inQ, nQ), true
}

// supportList lists the n candidates marked in, or returns nil when pin p
// needs no support row.
func (w *window) supportList(p winPin, in []bool, n int) []int {
	if p.cell < 0 || n == len(in) {
		return nil
	}
	sup := w.carveInt(n)[:0]
	for k, ok := range in {
		if ok {
			sup = append(sup, k)
		}
	}
	return sup
}

// pinView is p's geometry view with the λ variable ids of its cell for
// model assembly (nil Lambda, as built, for a fixed pin).
func pinView(p winPin, lambda [][]int) objective.PinView {
	v := p.PinView
	if p.cell >= 0 {
		v.Lambda = lambda[p.cell]
	}
	return v
}

// grown returns s resized to length n, reusing its backing array when
// capacity allows. Contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// resliceAll returns s resized to n inner slices, each truncated to zero
// length with its backing capacity preserved.
func resliceAll[T any](s [][]T, n int) [][]T {
	if cap(s) < n {
		ns := make([][]T, n)
		copy(ns, s[:cap(s)])
		s = ns
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

func minMaxInt(v []int) (int, int) {
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func minMax64(v []int64) (int64, int64) {
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
