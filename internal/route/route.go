// Package route implements the multi-layer grid router that stands in for
// the commercial (Innovus) router of the DAC'17 paper. It is the component
// whose *response to vertical pin alignment* produces the paper's headline
// metrics: direct vertical M1 routes (dM1), routed wirelength (RWL), via12
// counts and congestion-driven DRVs.
//
// The routing fabric is a 3-D grid: one node per (layer, site-column, row)
// with preferred-direction edges (M1/M3 vertical, M2/M4 horizontal) and
// vias between adjacent layers. Nets are routed pin-by-pin onto their
// growing route tree with A* search; in the initial pass each connection
// searches only the bounding box of the tree and its endpoint. Congestion
// is negotiated in one rip-up pass: when the initial routing leaves any
// edge over capacity, just enough nets to clear every edge's excess are
// ripped up (the latest routed first) and rerouted once, at twice
// Config.CongWeight, each connection in its box padded by
// Config.SearchMargin rows above and below (never sideways: the columns
// buy no overflow and cost a fifth of the pass's search work). Key
// architecture-specific behaviours:
//
//   - ClosedM1: pins are M1 nodes; foreign M1 pins block M1 traversal, so
//     inter-row M1 routing exists only where tracks are clear and pins
//     align — exactly the regime the paper's optimizer targets.
//   - OpenM1: pins are M0 shapes reached from any M1 node above their
//     x-extent for a via01 cost; M1 is otherwise open.
//   - Conventional: M1 carries rails/pins only; routing starts at M2.
//
// A connection routed as a single vertical M1 segment between two pin
// nodes spanning at most γ rows (tech.Tech.Gamma of the placement) is
// counted as a direct vertical M1 route.
//
// Routing is sequential and deterministic: one A* searcher routes the nets
// in ascending-HPWL order, and the rip-up pass reroutes its victims in the
// same order, every net committing its usage before the next is searched.
package route

import (
	"vm1place/internal/layout"
	"vm1place/internal/netlist"
	"vm1place/internal/tech"
)

// Config tunes the router.
type Config struct {
	// Caps is the per-layer routing capacity of one grid edge (tracks).
	Caps [tech.NumLayers]int
	// ViaCost is the cost of one layer change, in DBU-equivalent units.
	ViaCost int64
	// M1CostFactor scales M1 edge cost; < 1 makes the router prefer
	// direct vertical M1 where geometry permits (the dM1-aware mode).
	M1CostFactor float64
	// CongWeight scales the per-overflow cost penalty of the initial
	// routing; the rip-up pass reroutes at twice it.
	CongWeight float64
	// SearchMargin pads each connection's search bounding box in the
	// rip-up pass by this many rows above and below; the box keeps its
	// horizontal extent, and the initial pass searches the unpadded box.
	// A connection that finds no path in its box is counted in
	// Metrics.FailedConns.
	SearchMargin int
	// Arch selects pin-access behaviour. Conventional libraries get no
	// inter-cell M1 routing.
	Arch tech.Arch
	// Workers is ignored: the router is sequential. The field stays so
	// callers that set it keep compiling.
	Workers int
}

// DefaultConfig returns the router configuration for an architecture.
func DefaultConfig(t *tech.Tech, arch tech.Arch) Config {
	cfg := Config{
		ViaCost:      t.ViaCost,
		M1CostFactor: 0.3,
		CongWeight:   4.0,
		SearchMargin: 12,
		Arch:         arch,
	}
	cfg.Caps[tech.M1] = 1
	cfg.Caps[tech.M2] = 3
	cfg.Caps[tech.M3] = 2
	cfg.Caps[tech.M4] = 3
	return cfg
}

// Metrics summarizes one routing of the design.
type Metrics struct {
	// RWL is total routed wirelength in DBU (all layers).
	RWL int64
	// LayerWL is per-layer wirelength in DBU.
	LayerWL [tech.NumLayers]int64
	// Via01/Via12/Via23/Via34 count vias by layer pair.
	Via01, Via12, Via23, Via34 int
	// DM1 is the number of direct vertical M1 routes (single M1 segment
	// pin-to-pin connections spanning <= tech.Tech.Gamma rows).
	DM1 int
	// M1Segs is the number of distinct M1 route segments.
	M1Segs int
	// Overflow is the total edge overflow (Σ max(0, usage-cap)), the DRV
	// proxy.
	Overflow int
	// FailedConns counts connections the router could not complete.
	FailedConns int
}

// epRec is one net terminal — an instance pin or a port — with its access
// points stored flat in the router's apNode/apCost arrays.
type epRec struct {
	apStart, apEnd int32
	px, py         int64 // position, for endpoint ordering
	isPin          bool
}

// routingLayers is the number of layers the router searches (M1..M4); M0
// carries pins only and gets no nodes. Node ids keep the layer in their
// low two bits (id&3, cell id>>2), which relies on it being 4.
const routingLayers = int(tech.NumLayers - tech.M1)

// Router routes one placement. It retains per-net routes so callers can
// inspect them; RouteAllCtx may be called repeatedly (e.g., after placement
// changes) and starts from a clean slate each time.
//
// Grid nodes interleave the four routing layers per cell: node id =
// cell*4 + (layer - M1) with cell = y*nx + x, so a cell's via stack is one
// contiguous run of any node-indexed array and a layer is id&3. Every edge is
// stored at its lower/left endpoint's node id: the vertical edge
// (x,y)-(x,y+1) and the horizontal edge (x,y)-(x+1,y) both live at
// nodeID(l, x, y). The top row of a vertical layer and the right column of
// a horizontal layer own no edge and stay zero.
type Router struct {
	cfg Config
	p   *layout.Placement
	t   *tech.Tech

	nx, ny int // grid: site columns x rows

	// usage is the track usage of every edge, indexed by edge node id.
	usage []int32

	// blockedM1[cell] = net index + 1 of the ClosedM1 pin occupying the
	// M1 track node, or 0.
	blockedM1 []int32

	// edgeCost caches the full traversal cost of every edge at the
	// current usage and congestion weight (indexed like usage). Rebuilt
	// when the congestion weight changes and maintained incrementally by
	// addUsage, it turns the hot relax-loop cost computation into one
	// array load.
	edgeCost []float64
	curCW    float64

	// edgeBase/edgePitch are the per-layer cost constants behind
	// edgeCost, and edgeCap the per-layer capacity, all indexed by
	// layer - M1 (id&3).
	edgeBase, edgePitch [routingLayers]float64
	edgeCap             [routingLayers]int32

	// cx/cy decode a cell index without div/mod (hot in the search
	// kernel).
	cx, cy []int16

	// Per-RouteAllCtx endpoint tables. netEpStart is CSR over eps (one
	// range per net); apNode and apCost hold every endpoint's access
	// points flat.
	apNode     []int32
	apCost     []int64
	eps        []epRec
	netEpStart []int32
	hpwlKey    []int64

	// s is the A* arena, reused across nets and RouteAllCtx calls.
	s *searcher

	// routes holds the current route of each net.
	routes map[int]*netRoute

	// ripped is the number of nets the last RouteAllCtx's rip-up pass
	// rerouted: 0 when no edge overflowed or the run was cancelled.
	ripped int
	// work is the last RouteAllCtx's A* work per pass: [0] the initial
	// pass, [1] the rip-up pass (zero when none ran).
	work [2]passWork

	metrics Metrics
}

// New creates a router over the placement.
func New(p *layout.Placement, cfg Config) *Router {
	r := &Router{
		cfg: cfg,
		p:   p,
		t:   p.Tech,
		nx:  p.NumSites,
		ny:  p.NumRows,
	}
	n := r.nx * r.ny
	for k := 0; k < routingLayers; k++ {
		l := tech.M1 + tech.Layer(k)
		if l.Direction() == tech.Vertical {
			r.edgePitch[k] = float64(r.t.RowHeight)
		} else {
			r.edgePitch[k] = float64(r.t.SiteWidth)
		}
		r.edgeBase[k] = r.edgePitch[k]
		if l == tech.M1 {
			r.edgeBase[k] *= cfg.M1CostFactor
		}
		r.edgeCap[k] = int32(cfg.Caps[l])
	}
	r.usage = make([]int32, routingLayers*n)
	r.edgeCost = make([]float64, routingLayers*n)
	r.blockedM1 = make([]int32, n)
	r.routes = make(map[int]*netRoute)
	r.cx = make([]int16, n)
	r.cy = make([]int16, n)
	for c := 0; c < n; c++ {
		r.cx[c] = int16(c % r.nx)
		r.cy[c] = int16(c / r.nx)
	}
	r.s = newSearcher(r)
	return r
}

// rebuildEdgeCosts recomputes the cached per-edge traversal costs for
// congestion weight cw; addUsage keeps them current between rebuilds.
func (r *Router) rebuildEdgeCosts(cw float64) {
	r.curCW = cw
	var pen [routingLayers]float64
	for k := range pen {
		pen[k] = r.edgePitch[k] * cw
	}
	ec := r.edgeCost
	for id, u := range r.usage {
		k := id & 3
		c := r.edgeBase[k]
		if over := u + 1 - r.edgeCap[k]; over > 0 {
			c += pen[k] * float64(over)
		}
		ec[id] = c
	}
}

// nodeID encodes (layer, x, y) as cell*4 + (layer - M1).
func (r *Router) nodeID(l tech.Layer, x, y int) int32 {
	return int32((y*r.nx+x)*routingLayers + int(l-tech.M1))
}

func (r *Router) nodeOf(id int32) (l tech.Layer, x, y int) {
	c := id >> 2
	return tech.M1 + tech.Layer(id&3), int(r.cx[c]), int(r.cy[c])
}

// edgeOf returns the edge id (its lower/left node) of the grid step a-b,
// or -1 when the step is a via.
func edgeOf(a, b int32) int32 {
	if a&3 != b&3 {
		return -1
	}
	return min(a, b)
}

// accessPoint is one grid node from which a pin can be reached.
type accessPoint struct {
	node    int32
	viaCost int64 // cost of dropping from the node into the pin (e.g. V01)
}

func (r *Router) clampX(x int) int {
	if x < 0 {
		return 0
	}
	if x >= r.nx {
		return r.nx - 1
	}
	return x
}

// appendPinAccess appends the access points of a connection's pin to the
// flat apNode/apCost arrays.
func (r *Router) appendPinAccess(c netlist.Conn) {
	shape := r.p.PinShape(c)
	row := r.p.Row[c.Inst]
	switch r.cfg.Arch {
	case tech.ClosedM1:
		cx := (shape.Rect.XLo + shape.Rect.XHi) / 2
		x := r.clampX(r.t.XToSite(cx))
		r.apNode = append(r.apNode, r.nodeID(tech.M1, x, row))
		r.apCost = append(r.apCost, 0)
	case tech.OpenM1:
		lo := r.clampX(r.t.XToSite(shape.Rect.XLo))
		hi := r.clampX(r.t.XToSite(shape.Rect.XHi - 1))
		for x := lo; x <= hi; x++ {
			r.apNode = append(r.apNode, r.nodeID(tech.M1, x, row))
			r.apCost = append(r.apCost, r.cfg.ViaCost)
		}
	default: // Conventional: access from M2 above the pin center.
		cx := (shape.Rect.XLo + shape.Rect.XHi) / 2
		x := r.clampX(r.t.XToSite(cx))
		r.apNode = append(r.apNode, r.nodeID(tech.M2, x, row))
		r.apCost = append(r.apCost, r.cfg.ViaCost)
	}
}

// portAccess returns the access point for a port.
func (r *Router) portAccess(pi int) accessPoint {
	pt := r.p.PortXY[pi]
	x := r.t.XToSite(pt.X)
	y := r.t.YToRow(pt.Y)
	if x < 0 {
		x = 0
	}
	if x >= r.nx {
		x = r.nx - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= r.ny {
		y = r.ny - 1
	}
	return accessPoint{node: r.nodeID(tech.M2, x, y), viaCost: 0}
}

// buildEndpoints collects every signal net's terminals and access points
// into the flat CSR tables. Built once per RouteAllCtx and reused across
// the initial pass and the rip-up pass (the old kernel recomputed
// endpoints on each routeNet call).
func (r *Router) buildEndpoints() {
	d := r.p.Design
	nn := len(d.Nets)
	r.apNode = r.apNode[:0]
	r.apCost = r.apCost[:0]
	r.eps = r.eps[:0]
	if cap(r.netEpStart) >= nn+1 {
		r.netEpStart = r.netEpStart[:nn+1]
	} else {
		r.netEpStart = make([]int32, nn+1)
	}
	for ni := 0; ni < nn; ni++ {
		r.netEpStart[ni] = int32(len(r.eps))
		n := &d.Nets[ni]
		if n.IsClock {
			continue
		}
		if n.Driver.Inst >= 0 {
			r.appendEndpoint(n.Driver)
		}
		for _, c := range n.Sinks {
			r.appendEndpoint(c)
		}
		for _, pi := range n.Ports {
			apStart := int32(len(r.apNode))
			ap := r.portAccess(pi)
			r.apNode = append(r.apNode, ap.node)
			r.apCost = append(r.apCost, ap.viaCost)
			r.eps = append(r.eps, epRec{
				apStart: apStart, apEnd: int32(len(r.apNode)),
				px: r.p.PortXY[pi].X, py: r.p.PortXY[pi].Y,
			})
		}
	}
	r.netEpStart[nn] = int32(len(r.eps))
}

func (r *Router) appendEndpoint(c netlist.Conn) {
	apStart := int32(len(r.apNode))
	r.appendPinAccess(c)
	pos := r.p.PinPos(c)
	r.eps = append(r.eps, epRec{
		apStart: apStart, apEnd: int32(len(r.apNode)),
		px: pos.X, py: pos.Y, isPin: true,
	})
}

// buildBlockage records ClosedM1 pin blockages (foreign pins block M1).
func (r *Router) buildBlockage() {
	for i := range r.blockedM1 {
		r.blockedM1[i] = 0
	}
	if r.cfg.Arch != tech.ClosedM1 {
		return
	}
	d := r.p.Design
	for ii := range d.Insts {
		m := d.Insts[ii].Master
		row := r.p.Row[ii]
		for pi := range m.Pins {
			p := &m.Pins[pi]
			if !p.IsSignal() {
				continue
			}
			ni := d.Insts[ii].PinNets[pi]
			shape := r.p.PinShape(netlist.Conn{Inst: ii, Pin: pi})
			cx := (shape.Rect.XLo + shape.Rect.XHi) / 2
			x := r.t.XToSite(cx)
			if x < 0 || x >= r.nx {
				continue
			}
			r.blockedM1[r.cell(x, row)] = int32(ni + 1)
		}
	}
}

func (r *Router) cell(x, y int) int { return y*r.nx + x }

// Metrics returns the metrics of the last RouteAllCtx.
func (r *Router) Metrics() Metrics { return r.metrics }
