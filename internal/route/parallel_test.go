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

// genPlaced builds a generated, globally placed design for parallel tests.
func genPlaced(t *testing.T, arch tech.Arch, name string, n int, seed int64, util float64) *layout.Placement {
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

// TestWorkerCountInvariance is the determinism regression for the parallel
// engine: RouteAllCtx must return bit-identical Metrics for every Workers
// value and across repeated runs, on both M1 architectures.
func TestWorkerCountInvariance(t *testing.T) {
	for _, arch := range []tech.Arch{tech.ClosedM1, tech.OpenM1} {
		p := genPlaced(t, arch, "winv", 500, 41, 0.75)
		cfg := DefaultConfig(p.Tech, arch)
		cfg.Workers = 1
		ref := routeAll(t, New(p, cfg))
		if ref.RWL <= 0 {
			t.Fatalf("%s: reference run routed nothing", arch)
		}
		for _, w := range []int{2, 4, 8} {
			cfg.Workers = w
			got := routeAll(t, New(p, cfg))
			if got != ref {
				t.Errorf("%s: Workers=%d diverged:\n got %+v\nwant %+v", arch, w, got, ref)
			}
		}
		// Repeated runs on the same router must also agree (scratch reuse).
		cfg.Workers = 8
		r := New(p, cfg)
		first := routeAll(t, r)
		second := routeAll(t, r)
		if first != ref || second != ref {
			t.Errorf("%s: repeated runs diverged: %+v / %+v vs %+v", arch, first, second, ref)
		}
	}
}

// TestParallelRipupUnderRace exercises batched routing plus the
// negotiated-congestion rip-up passes with a real worker pool. It is sized
// to stay cheap under -race (the `make race` gate covers this package) and
// doubles as an equality check against the sequential engine on a design
// congested enough to overflow.
func TestParallelRipupUnderRace(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, "race", 400, 42, 0.85)
	cfg := DefaultConfig(p.Tech, tech.ClosedM1)
	// Starve M2/M3 so the first pass overflows and rip-up actually runs.
	cfg.Caps[tech.M2] = 1
	cfg.Caps[tech.M3] = 1

	cfg.Workers = 1
	seq := routeAll(t, New(p, cfg))
	if seq.Overflow == 0 {
		t.Fatal("setup: design not congested, rip-up never exercised")
	}

	cfg.Workers = 4
	par := routeAll(t, New(p, cfg))
	if par != seq {
		t.Errorf("parallel rip-up diverged:\n got %+v\nwant %+v", par, seq)
	}
}
