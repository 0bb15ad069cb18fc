package route

import (
	"context"
	"testing"

	"vm1place/internal/cells"
	"vm1place/internal/layout"
	"vm1place/internal/netlist"
	"vm1place/internal/place"
	"vm1place/internal/tech"
)

// genPlaced builds a generated, globally placed design.
func genPlaced(t testing.TB, arch tech.Arch, name string, n int, seed int64, util float64) *layout.Placement {
	t.Helper()
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, arch)
	d := netlist.MustGenerate(lib, netlist.DefaultGenConfig(name, n, seed))
	p := layout.MustNewFloorplan(tc, d, util)
	if err := place.Global(p, place.Options{}); err != nil {
		t.Fatal(err)
	}
	return p
}

// routeAll runs a full uncanceled RouteAllCtx, failing the test on error.
func routeAll(t testing.TB, r *Router) Metrics {
	t.Helper()
	m, err := r.RouteAllCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRouteDeterministicFreshAndReused: fresh routers and a reused router
// (whose searcher scratch carries over between runs) must return identical
// Metrics and identical routes, on both M1 architectures.
func TestRouteDeterministicFreshAndReused(t *testing.T) {
	for _, arch := range []tech.Arch{tech.ClosedM1, tech.OpenM1} {
		p := genPlaced(t, arch, "winv", 500, 41, 0.75)
		cfg := DefaultConfig(p.Tech, arch)
		ref := New(p, cfg)
		want := routeAll(t, ref)
		wantHash := routeHash(ref)
		if want.RWL <= 0 {
			t.Fatalf("%s: reference run routed nothing", arch)
		}
		reused := New(p, cfg)
		for run := 0; run < 2; run++ {
			fresh := New(p, cfg)
			for _, r := range []*Router{fresh, reused} {
				if got := routeAll(t, r); got != want {
					t.Errorf("%s run %d: Metrics diverged:\n got %+v\nwant %+v", arch, run, got, want)
				}
				if h := routeHash(r); h != wantHash {
					t.Errorf("%s run %d: route hash %#x, want %#x", arch, run, h, wantHash)
				}
			}
		}
	}
}
