package route

import (
	"vm1place/internal/tech"
)

// CostModel is the router's per-edge capacity model, extracted so that
// lightweight estimators (internal/proxy) can predict congestion from the
// same constants the maze router enforces, without importing the search
// kernel. Capacities are summed by preferred direction: a vertical cut
// through one grid cell is crossed by HCapPerCell horizontal tracks, a
// horizontal cut by VCapPerCell vertical ones.
type CostModel struct {
	// HCapPerCell is the summed horizontal-layer track capacity of one
	// grid cell (M2 + M4 under the default stack).
	HCapPerCell int
	// VCapPerCell is the summed vertical-layer track capacity of one grid
	// cell, excluding M1 (M3 under the default stack).
	VCapPerCell int
	// M1CapPerCell is the M1 vertical capacity of one grid cell, kept
	// separate because M1 availability depends on the architecture: under
	// ClosedM1 foreign pins block the track, under Conventional M1 is not
	// routable at all.
	M1CapPerCell int
	// M1Routable mirrors Config.M1Routable.
	M1Routable bool
}

// CostModel derives the capacity model from a router configuration.
func (cfg Config) CostModel() CostModel {
	var cm CostModel
	for l := tech.M1; l <= tech.M4; l++ {
		switch {
		case l == tech.M1:
			if cfg.M1Routable {
				cm.M1CapPerCell = cfg.Caps[l]
			}
		case l.Direction() == tech.Vertical:
			cm.VCapPerCell += cfg.Caps[l]
		default:
			cm.HCapPerCell += cfg.Caps[l]
		}
	}
	cm.M1Routable = cfg.M1Routable
	return cm
}

// OverflowGrid accumulates the per-tile edge overflow of the last RouteAllCtx
// into out, tiling the routing grid with tileSites x tileRows tiles
// (row-major, ceil(nx/tileSites) x ceil(ny/tileRows) tiles). Every edge's
// overflow max(0, usage-cap) is charged to the tile of its lower/left
// endpoint, summed across layers. out is reused when it has the right
// length; the returned slice is the filled grid. The totals match
// Metrics.Overflow: summing the grid yields the same DRV proxy the router
// reports, just spatially resolved — this is the feedback signal
// internal/proxy calibrates its per-region demand model against.
func (r *Router) OverflowGrid(tileSites, tileRows int, out []int64) []int64 {
	ntx := (r.nx + tileSites - 1) / tileSites
	nty := (r.ny + tileRows - 1) / tileRows
	if len(out) != ntx*nty {
		out = make([]int64, ntx*nty)
	} else {
		for i := range out {
			out[i] = 0
		}
	}
	for e, u := range r.usage {
		if over := u - r.edgeCap[e&3]; over > 0 {
			c := e / routingLayers
			out[int(r.cy[c])/tileRows*ntx+int(r.cx[c])/tileSites] += int64(over)
		}
	}
	return out
}
