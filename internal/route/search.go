package route

import (
	"math/bits"
	"slices"

	"vm1place/internal/tech"
)

// pq is a bucketed ("untidy") priority queue specialized for the A*
// kernel. Priorities are quantized into buckets of bqQuantum cost units
// arranged in a circular window of bqBuckets; push links the entry onto
// the front of its bucket's intrusive list and pop drains the lowest
// non-empty bucket LIFO. Entries beyond the window land in an overflow
// list that is harvested when the window empties; entries below the cursor
// (possible because the heuristic is mildly inflated) are clamped to the
// current bucket. Every operation is O(1) amortized with sequential memory
// access — replacing the d-ary heap whose pointer-chasing sift and branch
// mispredictions dominated the router's profile — at the price of a
// bounded (≤ one quantum per hop) and fully deterministic reordering.
const (
	bqBuckets = 1 << 12
	bqWords   = bqBuckets / 64
	bqMask    = bqBuckets - 1
)

// pqEnt is push #seq's payload and its bucket-list link (the next older
// entry of the same bucket, or -1).
type pqEnt struct {
	node, next int32
}

type pq struct {
	invQ  float64 // 1 / quantum
	curQ  uint32  // quantum index of the cursor bucket
	n     int     // live entries in window buckets
	first bool    // no push seen since reset

	// head[b] is the newest entry of bucket b; it is meaningful only
	// while b's mask bit is set, so reset clears the mask alone.
	head [bqBuckets]int32
	mask [bqWords]uint64
	over []uint64 // fq<<32 | seq, beyond-window entries
	ents []pqEnt  // ents[seq] = push #seq
}

func (q *pq) reset() {
	q.mask = [bqWords]uint64{}
	q.over = q.over[:0]
	q.ents = q.ents[:0]
	q.n = 0
	q.first = true
}

func (q *pq) empty() bool { return q.n == 0 && len(q.over) == 0 }

// link pushes entry seq onto the front of bucket b.
func (q *pq) link(b uint32, seq int32) {
	w, bit := b>>6, uint64(1)<<(b&63)
	if q.mask[w]&bit == 0 {
		q.ents[seq].next = -1
		q.mask[w] |= bit
	} else {
		q.ents[seq].next = q.head[b]
	}
	q.head[b] = seq
	q.n++
}

// push inserts node with priority f and returns its sequence stamp.
func (q *pq) push(f float64, node int32) int32 {
	seq := int32(len(q.ents))
	q.ents = append(q.ents, pqEnt{node: node})
	fq := uint32(f * q.invQ)
	if q.first {
		q.first = false
		q.curQ = fq
	}
	if fq < q.curQ {
		fq = q.curQ // late improvement: clamp to the cursor bucket
	}
	if fq-q.curQ >= bqBuckets {
		q.over = append(q.over, uint64(fq)<<32|uint64(uint32(seq)))
		return seq
	}
	q.link(fq&bqMask, seq)
	return seq
}

// pop removes the entry with the (quantized) lowest priority.
func (q *pq) pop() int32 {
	if q.n == 0 {
		q.harvest()
	}
	b := q.curQ & bqMask
	w := int(b >> 6)
	m := q.mask[w] >> (b & 63)
	for m == 0 {
		w = (w + 1) & (bqWords - 1)
		q.curQ = (q.curQ &^ 63) + 64
		m = q.mask[w]
	}
	q.curQ += uint32(bits.TrailingZeros64(m))
	b = q.curQ & bqMask
	seq := q.head[b]
	if next := q.ents[seq].next; next >= 0 {
		q.head[b] = next
	} else {
		q.mask[b>>6] &^= 1 << (b & 63)
	}
	q.n--
	return seq
}

// harvest rebases the window on the overflow list (callers guarantee it is
// non-empty when n is 0 and pop is called).
func (q *pq) harvest() {
	minFq := uint32(q.over[0] >> 32)
	for _, e := range q.over[1:] {
		if fq := uint32(e >> 32); fq < minFq {
			minFq = fq
		}
	}
	q.curQ = minFq
	keep := q.over[:0]
	for _, e := range q.over {
		fq := uint32(e >> 32)
		if fq-minFq >= bqBuckets {
			keep = append(keep, e)
			continue
		}
		q.link(fq&bqMask, int32(uint32(e)))
	}
	q.over = keep
}

// netRoute holds the routed state of one net. All connection paths share
// one flat backing array (seg holds the offsets); paths is materialized as
// subslice views once the net is complete.
type netRoute struct {
	flat  []int32
	seg   [][2]int32
	paths [][]int32
	dm1   []bool
	// endpoints that participated (for via counting).
	pinConns int
}

// region is an inclusive grid-rectangle search bound.
type region struct {
	xlo, ylo, xhi, yhi int
}

func (r *Router) clampRegion(rg region) region {
	if rg.xlo < 0 {
		rg.xlo = 0
	}
	if rg.ylo < 0 {
		rg.ylo = 0
	}
	if rg.xhi >= r.nx {
		rg.xhi = r.nx - 1
	}
	if rg.yhi >= r.ny {
		rg.yhi = r.ny - 1
	}
	return rg
}

// Edge traversal costs are read from the Router's edgeCost cache (see
// rebuildEdgeCosts); addUsage keeps the cache in sync as paths commit.

// m1Enterable reports whether net ni may occupy the M1 node of cell c.
func (r *Router) m1Enterable(ni int, c int32) bool {
	if r.cfg.Arch == tech.Conventional {
		return false
	}
	b := r.blockedM1[c]
	return b == 0 || b == int32(ni+1)
}

// nodeState is the per-node A* record: the best-known cost, the parent
// node, and the sequence stamp of the node's live queue entry. Stamps
// count pushes across the searcher's whole life and each search starts at
// a fresh base, so a record is current iff seq >= base: the stamp doubles
// as the lazy invalidation that a separate generation field used to
// provide, and a popped entry whose stamp differs from the record's is
// stale. 16 bytes, four per cache line.
type nodeState struct {
	g    float64
	from int32
	seq  uint32
}

// seqLimit bounds the searcher's push stamps; reaching it wipes the node
// records and restarts the count, long before uint32 could wrap.
const seqLimit = 1 << 31

// searcher owns the router's complete A* state: the frontier queue, the
// sequence-stamped score/parent arena, the tree marks and pin-node list
// that replace per-net maps, and the endpoint-ordering, heuristic and path
// scratch reused across nets.
type searcher struct {
	r *Router

	open pq

	// base is the stamp of the in-flight search's first push; records
	// stamped below it belong to earlier searches.
	base uint32
	ns   []nodeState

	// treeMark[id] == treeGen marks id as on the current net's route tree
	// (the A* target set). pinNodes lists the access nodes of the
	// current net's already-connected pin terminals (for dM1
	// classification).
	treeGen  int32
	treeMark []int32
	pinNodes []int32

	// hx[x]/hy[y] are the in-flight search's distance terms of the
	// heuristic over its region.
	hx, hy     []float64
	tb         region
	sw, rh, vc float64

	// from is the parent that relax records: the node being expanded, or
	// -1 while the sources are seeded.
	from int32

	// Endpoint-ordering scratch.
	order []int32
	dist  []int64

	pathBuf []int32

	// work counts the in-flight pass's searches and queue pops (stale
	// entries included); routeNets zeroes it.
	work passWork

	failedConns int
}

// passWork is one routing pass's A* work: searches run and entries taken
// from the queue. Both depend only on the placement and the config, never
// on the host.
type passWork struct {
	searches, pops int
}

func newSearcher(r *Router) *searcher {
	size := routingLayers * r.nx * r.ny
	sr := &searcher{
		r:        r,
		base:     1, // zeroed records (seq 0) start out stale
		ns:       make([]nodeState, size),
		treeMark: make([]int32, size),
		hx:       make([]float64, r.nx),
		hy:       make([]float64, r.ny),
		sw:       float64(r.t.SiteWidth),
		rh:       float64(r.t.RowHeight),
		vc:       float64(r.cfg.ViaCost),
	}
	// One quantum = half the cheapest step so distinct step costs land in
	// distinct buckets.
	q := float64(r.t.SiteWidth) / 2
	if q < 1 {
		q = 1
	}
	sr.open.invQ = 1 / q
	return sr
}

// setHeuristic fills hx/hy for target box s.tb over region rg.
//
// The heuristic is the slightly inflated distance to the target box, plus
// a via lower bound: a node that still needs horizontal progress while
// sitting on a vertical layer (or vice versa, or needing both directions)
// must pay at least one layer change. Inflation (and pricing vertical
// moves at the full row pitch even though M1 may be cheaper) trades strict
// optimality for a near-beeline search — the standard maze-router
// compromise; congestion still shapes the path through g.
func (s *searcher) setHeuristic(rg region) {
	for x := rg.xlo; x <= rg.xhi; x++ {
		var dx int
		if x < s.tb.xlo {
			dx = s.tb.xlo - x
		} else if x > s.tb.xhi {
			dx = x - s.tb.xhi
		}
		s.hx[x] = float64(dx) * s.sw
	}
	for y := rg.ylo; y <= rg.yhi; y++ {
		var dy int
		if y < s.tb.ylo {
			dy = s.tb.ylo - y
		} else if y > s.tb.yhi {
			dy = y - s.tb.yhi
		}
		s.hy[y] = float64(dy) * s.rh
	}
}

// h evaluates the heuristic at node id. A node off the box in its
// layer's cross direction needs a via: a vertical layer (M1, M3: even
// id&3) when dx != 0, a horizontal one when dy != 0.
func (s *searcher) h(id int32) float64 {
	c := id >> 2
	hx, hy := s.hx[s.r.cx[c]], s.hy[s.r.cy[c]]
	d := hx + hy
	if vertical := id&1 == 0; vertical && hx != 0 || !vertical && hy != 0 {
		d += s.vc
	}
	return d * 1.05
}

// relax offers node id at cost g via the node being expanded (s.from).
// The reject test is kept small enough to inline into the expansion loop;
// only improvements pay for the heuristic and the push.
func (s *searcher) relax(id int32, g float64) {
	if st := s.ns[id]; st.seq < s.base || g < st.g {
		s.improve(id, g)
	}
}

func (s *searcher) improve(id int32, g float64) {
	st := &s.ns[id]
	st.g = g
	st.from = s.from
	st.seq = s.base + uint32(s.open.push(g+s.h(id), id))
}

// astar searches from the access points [apStart, apEnd) to any node on
// the current tree marks, bounded by rg. Access points always lie inside
// rg (every search region covers its endpoint's access bbox), and
// expansion never leaves it, so the heuristic tables cover every node the
// search touches. The returned path (source node first) lives in the
// searcher's scratch buffer, valid until the next search; nil when no
// path exists.
func (s *searcher) astar(ni int, apStart, apEnd int32, rg region) []int32 {
	r := s.r
	s.base += uint32(len(s.open.ents))
	if s.base >= seqLimit {
		clear(s.ns)
		s.base = 1
	}
	s.open.reset()
	s.setHeuristic(rg)

	s.from = -1
	for k := apStart; k < apEnd; k++ {
		id := r.apNode[k]
		if id&3 == 0 && !r.m1Enterable(ni, id>>2) {
			continue // an M1 access node blocked for this net
		}
		s.relax(id, float64(r.apCost[k]))
	}

	vc := s.vc
	ec := r.edgeCost
	row := int32(routingLayers * r.nx) // id step of one row
	const col = int32(routingLayers)   // id step of one column
	s.work.searches++
	pops := 0
	for !s.open.empty() {
		pops++
		seq := s.open.pop()
		id := s.open.ents[seq].node
		st := &s.ns[id]
		if st.seq != s.base+uint32(seq) {
			continue // stale entry
		}
		g := st.g
		if s.treeMark[id] == s.treeGen {
			// Reconstruct into the reusable buffer, source-first.
			buf := s.pathBuf[:0]
			for n := id; n != -1; n = s.ns[n].from {
				buf = append(buf, n)
			}
			for i, j := 0, len(buf)-1; i < j; i, j = i+1, j-1 {
				buf[i], buf[j] = buf[j], buf[i]
			}
			s.pathBuf = buf
			s.work.pops += pops
			return buf
		}

		// Preferred-direction edges (+ before -), then the via down (the
		// graph never descends below M1), then the via up.
		s.from = id
		c := id >> 2
		x, y := int(r.cx[c]), int(r.cy[c])
		switch id & 3 {
		case 0: // M1, vertical
			if y+1 <= rg.yhi && r.m1Enterable(ni, c+int32(r.nx)) {
				s.relax(id+row, g+ec[id])
			}
			if y-1 >= rg.ylo && r.m1Enterable(ni, c-int32(r.nx)) {
				s.relax(id-row, g+ec[id-row])
			}
			s.relax(id+1, g+vc)
		case 1: // M2, horizontal
			if x+1 <= rg.xhi {
				s.relax(id+col, g+ec[id])
			}
			if x-1 >= rg.xlo {
				s.relax(id-col, g+ec[id-col])
			}
			if r.m1Enterable(ni, c) {
				s.relax(id-1, g+vc)
			}
			s.relax(id+1, g+vc)
		case 2: // M3, vertical
			if y+1 <= rg.yhi {
				s.relax(id+row, g+ec[id])
			}
			if y-1 >= rg.ylo {
				s.relax(id-row, g+ec[id-row])
			}
			s.relax(id-1, g+vc)
			s.relax(id+1, g+vc)
		default: // M4, horizontal
			if x+1 <= rg.xhi {
				s.relax(id+col, g+ec[id])
			}
			if x-1 >= rg.xlo {
				s.relax(id-col, g+ec[id-col])
			}
			s.relax(id-1, g+vc)
		}
	}
	s.work.pops += pops
	return nil
}

// routeNet routes net ni at the current cached edge costs, updating edge
// usage as each connection lands. Each connection searches the bbox of
// the tree and its endpoint padded by margin cells: 0 in the initial pass,
// SearchMargin in the rip-up pass. A connection that finds no path there is
// retried once in that box padded by a further 6*SearchMargin, and one that
// still fails is counted and skipped.
func (s *searcher) routeNet(ni, margin int) *netRoute {
	r := s.r
	epStart, epEnd := r.netEpStart[ni], r.netEpStart[ni+1]
	nr := &netRoute{}
	for k := epStart; k < epEnd; k++ {
		if r.eps[k].isPin {
			nr.pinConns++
		}
	}
	if epEnd-epStart < 2 {
		return nr
	}

	// Grow a route tree starting at the first endpoint (the driver when
	// the net has one), connecting remaining endpoints nearest-first.
	s.treeGen++
	s.pinNodes = s.pinNodes[:0]
	first := &r.eps[epStart]
	for a := first.apStart; a < first.apEnd; a++ {
		s.treeMark[r.apNode[a]] = s.treeGen
	}
	if first.isPin {
		s.pinNodes = append(s.pinNodes, r.apNode[first.apStart:first.apEnd]...)
	}
	treeGrid := r.apRegionOf(first.apStart, first.apEnd)

	// Stable insertion sort of the remaining endpoints by Manhattan
	// distance to the first (endpoint counts are tiny; this replaces a
	// closure-allocating sort.Slice).
	s.order = s.order[:0]
	s.dist = s.dist[:0]
	for k := epStart + 1; k < epEnd; k++ {
		d := absI64(r.eps[k].px-first.px) + absI64(r.eps[k].py-first.py)
		s.order = append(s.order, k)
		s.dist = append(s.dist, d)
		for i := len(s.order) - 1; i > 0 && s.dist[i] < s.dist[i-1]; i-- {
			s.order[i], s.order[i-1] = s.order[i-1], s.order[i]
			s.dist[i], s.dist[i-1] = s.dist[i-1], s.dist[i]
		}
	}

	for _, k := range s.order {
		ep := &r.eps[k]
		epRg := r.apRegionOf(ep.apStart, ep.apEnd)
		search := r.clampRegion(region{
			xlo: min(treeGrid.xlo, epRg.xlo) - margin,
			ylo: min(treeGrid.ylo, epRg.ylo) - margin,
			xhi: max(treeGrid.xhi, epRg.xhi) + margin,
			yhi: max(treeGrid.yhi, epRg.yhi) + margin,
		})
		s.tb = treeGrid
		path := s.astar(ni, ep.apStart, ep.apEnd, search)
		if path == nil {
			w := 6 * r.cfg.SearchMargin
			retry := r.clampRegion(region{
				xlo: search.xlo - w, ylo: search.ylo - w,
				xhi: search.xhi + w, yhi: search.yhi + w,
			})
			path = s.astar(ni, ep.apStart, ep.apEnd, retry)
		}
		if path == nil {
			s.failedConns++
			continue
		}
		dm1 := s.classifyDM1(path, ep.isPin)
		r.addUsage(path, +1)
		for _, id := range path {
			s.treeMark[id] = s.treeGen
		}
		if ep.isPin {
			s.pinNodes = append(s.pinNodes, r.apNode[ep.apStart:ep.apEnd]...)
		}
		treeGrid = growRegion(treeGrid, path, r)

		off := int32(len(nr.flat))
		nr.flat = append(nr.flat, path...)
		nr.seg = append(nr.seg, [2]int32{off, int32(len(nr.flat))})
		nr.dm1 = append(nr.dm1, dm1)
	}

	nr.paths = make([][]int32, len(nr.seg))
	for i, sg := range nr.seg {
		nr.paths[i] = nr.flat[sg[0]:sg[1]]
	}
	return nr
}

// classifyDM1 reports whether a connection path is a direct vertical M1
// route: entirely on one M1 track, spanning at most Gamma rows, landing on
// a pin node of the tree, with the moving end also a pin.
func (s *searcher) classifyDM1(path []int32, fromPin bool) bool {
	if !fromPin || len(path) == 0 {
		return false
	}
	r := s.r
	last := path[len(path)-1]
	if !slices.Contains(s.pinNodes, last) {
		return false
	}
	_, x0, y0 := r.nodeOf(path[0])
	for _, id := range path {
		l, x, _ := r.nodeOf(id)
		if l != tech.M1 || x != x0 {
			return false
		}
	}
	_, _, yEnd := r.nodeOf(last)
	span := yEnd - y0
	if span < 0 {
		span = -span
	}
	return span <= r.t.Gamma
}

// apRegionOf returns the grid bbox of access points [lo, hi).
func (r *Router) apRegionOf(lo, hi int32) region {
	rg := region{xlo: r.nx, ylo: r.ny, xhi: -1, yhi: -1}
	for k := lo; k < hi; k++ {
		_, x, y := r.nodeOf(r.apNode[k])
		if x < rg.xlo {
			rg.xlo = x
		}
		if x > rg.xhi {
			rg.xhi = x
		}
		if y < rg.ylo {
			rg.ylo = y
		}
		if y > rg.yhi {
			rg.yhi = y
		}
	}
	return rg
}

func growRegion(rg region, path []int32, r *Router) region {
	for _, id := range path {
		_, x, y := r.nodeOf(id)
		if x < rg.xlo {
			rg.xlo = x
		}
		if x > rg.xhi {
			rg.xhi = x
		}
		if y < rg.ylo {
			rg.ylo = y
		}
		if y > rg.yhi {
			rg.yhi = y
		}
	}
	return rg
}

// addUsage applies (or removes, delta = -1) a path's edge usage and keeps
// the cached edge costs in sync at the current congestion weight.
func (r *Router) addUsage(path []int32, delta int32) {
	for i := 1; i < len(path); i++ {
		e := edgeOf(path[i-1], path[i])
		if e < 0 {
			continue // via
		}
		u := r.usage[e] + delta
		r.usage[e] = u
		k := e & 3
		c := r.edgeBase[k]
		if over := u + 1 - r.edgeCap[k]; over > 0 {
			c += r.edgePitch[k] * r.curCW * float64(over)
		}
		r.edgeCost[e] = c
	}
}
