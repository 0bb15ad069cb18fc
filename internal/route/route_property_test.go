package route

import (
	"testing"

	"vm1place/internal/cells"
	"vm1place/internal/layout"
	"vm1place/internal/netlist"
	"vm1place/internal/place"
	"vm1place/internal/tech"
)

// TestUsageRoundTrip: adding and removing a path's usage restores zero.
func TestUsageRoundTrip(t *testing.T) {
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.ClosedM1)
	d := netlist.MustGenerate(lib, netlist.DefaultGenConfig("u", 300, 81))
	p := layout.MustNewFloorplan(tc, d, 0.7)
	if err := place.Global(p, place.Options{}); err != nil {
		t.Fatal(err)
	}
	r := New(p, DefaultConfig(tc, tech.ClosedM1))
	routeAll(t, r)
	// Rip every net; all usage must return to zero.
	for ni := range d.Nets {
		r.ripNet(ni)
	}
	for e, u := range r.usage {
		if u != 0 {
			t.Fatalf("edge %d usage %d after full rip-up", e, u)
		}
	}
}

// TestPathsAreConnected: every stored path is a chain of grid-adjacent
// nodes (same-layer steps of one cell, or vias).
func TestPathsAreConnected(t *testing.T) {
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.OpenM1)
	d := netlist.MustGenerate(lib, netlist.DefaultGenConfig("c", 300, 82))
	p := layout.MustNewFloorplan(tc, d, 0.7)
	if err := place.Global(p, place.Options{}); err != nil {
		t.Fatal(err)
	}
	r := New(p, DefaultConfig(tc, tech.OpenM1))
	routeAll(t, r)
	for ni, nr := range r.routes {
		for _, path := range nr.paths {
			for i := 1; i < len(path); i++ {
				la, xa, ya := r.nodeOf(path[i-1])
				lb, xb, yb := r.nodeOf(path[i])
				dl := int(la) - int(lb)
				if dl < 0 {
					dl = -dl
				}
				dx := xa - xb
				if dx < 0 {
					dx = -dx
				}
				dy := ya - yb
				if dy < 0 {
					dy = -dy
				}
				if dl+dx+dy != 1 {
					t.Fatalf("net %d: non-adjacent step (%s,%d,%d)->(%s,%d,%d)",
						ni, la, xa, ya, lb, xb, yb)
				}
				if dl == 1 && (dx != 0 || dy != 0) {
					t.Fatalf("net %d: diagonal via", ni)
				}
				if dl == 0 {
					if la.Direction() == tech.Vertical && dx != 0 {
						t.Fatalf("net %d: horizontal move on vertical layer %s", ni, la)
					}
					if la.Direction() == tech.Horizontal && dy != 0 {
						t.Fatalf("net %d: vertical move on horizontal layer %s", ni, la)
					}
				}
			}
		}
	}
}

// TestDM1PathsRespectGamma: every counted dM1 spans at most the
// technology's γ rows and stays on one M1 track, at the default γ and at a
// smaller one. The OpenM1 design routes some 3-row dM1 candidates, so γ 2
// must leave them uncounted.
func TestDM1PathsRespectGamma(t *testing.T) {
	gamma2 := *tech.Default()
	gamma2.Gamma = 2
	for _, arch := range []tech.Arch{tech.ClosedM1, tech.OpenM1} {
		for _, tc := range []*tech.Tech{tech.Default(), &gamma2} {
			checkDM1Spans(t, tc, arch)
		}
	}
}

func checkDM1Spans(t *testing.T, tc *tech.Tech, arch tech.Arch) {
	t.Helper()
	lib := cells.MustNewLibrary(tc, arch)
	d := netlist.MustGenerate(lib, netlist.DefaultGenConfig("g", 400, 83))
	p := layout.MustNewFloorplan(tc, d, 0.7)
	if err := place.Global(p, place.Options{}); err != nil {
		t.Fatal(err)
	}
	r := New(p, DefaultConfig(tc, arch))
	routeAll(t, r)
	dm1 := 0
	for ni, nr := range r.routes {
		for pi, path := range nr.paths {
			if !nr.dm1[pi] {
				continue
			}
			dm1++
			_, x0, yMin := r.nodeOf(path[0])
			yMax := yMin
			for _, id := range path {
				l, x, y := r.nodeOf(id)
				if l != tech.M1 {
					t.Fatalf("net %d: dM1 path leaves M1", ni)
				}
				if x != x0 {
					t.Fatalf("net %d: dM1 path changes track", ni)
				}
				if y < yMin {
					yMin = y
				}
				if y > yMax {
					yMax = y
				}
			}
			if yMax-yMin > p.Tech.Gamma {
				t.Fatalf("net %d: dM1 spans %d rows > gamma %d", ni, yMax-yMin, p.Tech.Gamma)
			}
		}
	}
	if dm1 == 0 {
		t.Errorf("%v at gamma %d: no dM1 routes to check", arch, tc.Gamma)
	}
}

// TestBlockedM1NeverTraversedByForeignNets: no routed path occupies an M1
// node blocked by another net's pin.
func TestBlockedM1NeverTraversedByForeignNets(t *testing.T) {
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.ClosedM1)
	d := netlist.MustGenerate(lib, netlist.DefaultGenConfig("b", 400, 84))
	p := layout.MustNewFloorplan(tc, d, 0.7)
	if err := place.Global(p, place.Options{}); err != nil {
		t.Fatal(err)
	}
	r := New(p, DefaultConfig(tc, tech.ClosedM1))
	routeAll(t, r)
	for ni, nr := range r.routes {
		for _, path := range nr.paths {
			for _, id := range path {
				l, x, y := r.nodeOf(id)
				if l != tech.M1 {
					continue
				}
				b := r.blockedM1[r.cell(x, y)]
				if b != 0 && b != int32(ni+1) {
					t.Fatalf("net %d traverses M1 node (%d,%d) blocked by net %d",
						ni, x, y, b-1)
				}
			}
		}
	}
}

// TestHigherCapacityLowersOverflow: doubling M2/M3 capacity cannot
// increase the overflow metric.
func TestHigherCapacityLowersOverflow(t *testing.T) {
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.ClosedM1)
	d := netlist.MustGenerate(lib, netlist.DefaultGenConfig("o", 600, 85))
	p := layout.MustNewFloorplan(tc, d, 0.84)
	if err := place.Global(p, place.Options{}); err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig(tc, tech.ClosedM1)
	mBase := routeAll(t, New(p, base))
	roomy := base
	roomy.Caps[tech.M2] *= 2
	roomy.Caps[tech.M3] *= 2
	mRoomy := routeAll(t, New(p, roomy))
	if mRoomy.Overflow > mBase.Overflow {
		t.Errorf("more capacity raised overflow: %d -> %d", mBase.Overflow, mRoomy.Overflow)
	}
}
