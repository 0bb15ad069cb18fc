package route

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"vm1place/internal/tech"
)

// RouteAllCtx routes every signal net from scratch (clearing any previous
// routing), runs at most one rip-up-and-reroute pass, and returns the final
// metrics. Nets are routed one at a time in ascending-HPWL order (see
// routeNets), so the result depends only on the placement and cfg.
//
// Cancellation is checked before each net and before the rip-up pass —
// points where every routed net is committed — so when it returns early
// the usage arrays and route records agree: every committed net is fully
// routed and accounted, every uncommitted net is absent. The returned
// Metrics are computed from the committed routes, alongside an error
// wrapping ctx.Err().
func (r *Router) RouteAllCtx(ctx context.Context) (Metrics, error) {
	// Reset state.
	clear(r.usage)
	r.routes = make(map[int]*netRoute, len(r.p.Design.Nets))
	r.metrics = Metrics{}
	r.ripped = 0
	r.work = [2]passWork{}
	r.s.failedConns = 0
	r.buildBlockage()
	r.buildEndpoints()

	nets := r.routableNets()
	// Route short nets first: they have the least flexibility.
	if len(r.hpwlKey) != len(r.p.Design.Nets) {
		r.hpwlKey = make([]int64, len(r.p.Design.Nets))
	}
	for _, ni := range nets {
		r.hpwlKey[ni] = r.p.NetHPWL(ni)
	}
	sort.SliceStable(nets, func(a, b int) bool {
		return r.hpwlKey[nets[a]] < r.hpwlKey[nets[b]]
	})

	// The initial pass searches each connection's own bounding box.
	err := r.routeNets(ctx, nets, r.cfg.CongWeight, 0)
	r.work[0] = r.s.work
	if err != nil {
		return r.finishMetrics(), fmt.Errorf("route: RouteAllCtx interrupted: %w", err)
	}

	// Negotiated congestion, one pass: if any edge is over capacity, just
	// enough nets to clear every edge's excess are ripped up and rerouted
	// at twice the congestion weight, in routing order, each in its box
	// padded by SearchMargin.
	if r.totalOverflow() == 0 {
		return r.finishMetrics(), nil
	}
	if err := ctx.Err(); err != nil {
		return r.finishMetrics(), fmt.Errorf("route: RouteAllCtx interrupted: %w", err)
	}
	victims := r.ripExcess(nets)
	err = r.routeNets(ctx, victims, 2*r.cfg.CongWeight, r.cfg.SearchMargin)
	r.work[1] = r.s.work
	if err != nil {
		return r.finishMetrics(), fmt.Errorf("route: RouteAllCtx interrupted: %w", err)
	}
	r.ripped = len(victims)

	return r.finishMetrics(), nil
}

// routeNets routes nets in order at congestion weight cw, padding every
// connection's search box by margin cells, each net committing its usage
// before the next is searched. Cancellation is checked before each net, so
// an early return leaves every committed net fully routed and the usage
// arrays consistent. The searcher's work counts cover this call alone.
func (r *Router) routeNets(ctx context.Context, nets []int, cw float64, margin int) error {
	r.rebuildEdgeCosts(cw)
	r.s.work = passWork{}
	for _, ni := range nets {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.routes[ni] = r.s.routeNet(ni, margin)
	}
	return nil
}

// finishMetrics folds the searcher's failure count into the metrics and
// derives the final Metrics from whatever routes are committed. It is the
// common tail of complete and interrupted RouteAllCtx runs: ripNet keeps
// usage and route records consistent, so partial metrics are exact over
// the committed subset.
func (r *Router) finishMetrics() Metrics {
	r.metrics.FailedConns += r.s.failedConns
	r.computeMetrics()
	return r.metrics
}

// routableNets returns signal nets with at least two endpoints, using the
// endpoint CSR built by buildEndpoints (the old implementation rescanned
// every port for every net).
func (r *Router) routableNets() []int {
	d := r.p.Design
	var nets []int
	for ni := range d.Nets {
		if d.Nets[ni].IsClock {
			continue
		}
		if r.netEpStart[ni+1]-r.netEpStart[ni] >= 2 {
			nets = append(nets, ni)
		}
	}
	return nets
}

// ripNet removes a net's routing from the usage maps.
func (r *Router) ripNet(ni int) {
	nr := r.routes[ni]
	if nr == nil {
		return
	}
	for _, path := range nr.paths {
		r.addUsage(path, -1)
	}
	delete(r.routes, ni)
}

// ripExcess rips up just enough nets to take every edge back to
// capacity. It walks nets latest-routed first (nets is in routing order)
// and rips each net that crosses an edge still over capacity; ripping
// takes the net's crossings off every edge it crosses, so an edge one
// track over capacity loses one net, not every net on it. It returns the
// ripped nets in routing order.
func (r *Router) ripExcess(nets []int) []int {
	var victims []int
	for i := len(nets) - 1; i >= 0; i-- {
		ni := nets[i]
		nr := r.routes[ni]
		if nr == nil || !slices.ContainsFunc(nr.paths, r.pathOverflows) {
			continue
		}
		r.ripNet(ni)
		victims = append(victims, ni)
	}
	slices.Reverse(victims)
	return victims
}

func (r *Router) pathOverflows(path []int32) bool {
	for i := 1; i < len(path); i++ {
		if e := edgeOf(path[i-1], path[i]); e >= 0 && r.usage[e] > r.edgeCap[e&3] {
			return true
		}
	}
	return false
}

// totalOverflow sums edge overflow across all layers (the DRV proxy).
// Edge slots past the grid's top row / right column are never used, so
// summing every slot counts exactly the real edges.
func (r *Router) totalOverflow() int {
	total := 0
	for e, u := range r.usage {
		if over := u - r.edgeCap[e&3]; over > 0 {
			total += int(over)
		}
	}
	return total
}

// computeMetrics derives all metrics from the stored routes. Every term is
// a commutative integer sum, so map iteration order does not matter.
func (r *Router) computeMetrics() {
	m := Metrics{FailedConns: r.metrics.FailedConns}
	for _, nr := range r.routes {
		for pi, path := range nr.paths {
			if nr.dm1[pi] {
				m.DM1++
			}
			inM1Run := false
			for i := 1; i < len(path); i++ {
				la, _, ya := r.nodeOf(path[i-1])
				lb, _, yb := r.nodeOf(path[i])
				if la != lb {
					// Via.
					lo := la
					if lb < lo {
						lo = lb
					}
					switch lo {
					case tech.M1:
						m.Via12++
					case tech.M2:
						m.Via23++
					case tech.M3:
						m.Via34++
					}
					inM1Run = false
					continue
				}
				if la.Direction() == tech.Vertical {
					m.LayerWL[la] += r.t.RowHeight * absI64(int64(yb-ya))
					if la == tech.M1 {
						if !inM1Run {
							m.M1Segs++
							inM1Run = true
						}
					} else {
						inM1Run = false
					}
				} else {
					m.LayerWL[la] += r.t.SiteWidth
					inM1Run = false
				}
			}
		}
		// Pin-access vias, once per pin terminal.
		switch r.cfg.Arch {
		case tech.OpenM1:
			m.Via01 += nr.pinConns
		case tech.Conventional:
			m.Via12 += nr.pinConns
		}
	}
	for l := tech.M1; l <= tech.M4; l++ {
		m.RWL += m.LayerWL[l]
	}
	m.Overflow = r.totalOverflow()
	r.metrics = m
}

func absI64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
