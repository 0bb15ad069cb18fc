package route

import (
	"testing"

	"vm1place/internal/tech"
)

// TestRipupStopsWhenOverflowStalls pins the rip-up stop rule: the
// negotiated-congestion loop ends after the first pass that leaves total
// overflow no lower than before it, keeping that pass's routing, and
// otherwise runs all RipupIters passes.
func TestRipupStopsWhenOverflowStalls(t *testing.T) {
	cfg := DefaultConfig(tech.Default(), tech.ClosedM1)

	// A route-heavy-like design: 1200 ClosedM1 instances at 0.75
	// utilization, where the first pass rips up most nets and leaves
	// overflow higher than the initial routing did.
	p := genPlaced(t, tech.ClosedM1, "ripup", 1200, 1, 0.75)
	cfg.RipupIters = 0
	initial := routeAll(t, New(p, cfg)).Overflow

	cfg.RipupIters = 3
	r := New(p, cfg)
	m := routeAll(t, r)
	if len(r.ripups) != 1 {
		t.Fatalf("stalling design ran %d rip-up passes %+v, want 1", len(r.ripups), r.ripups)
	}
	if after := r.ripups[0].overflow; after < initial {
		t.Fatalf("setup: first pass lowered overflow %d → %d; the design does not stall", initial, after)
	}
	if m.Overflow != r.ripups[0].overflow {
		t.Errorf("Metrics.Overflow %d, want the stalled pass's %d (its routing stays committed)",
			m.Overflow, r.ripups[0].overflow)
	}
	cfg.RipupIters = 1
	one := New(p, cfg)
	if m1 := routeAll(t, one); m1 != m {
		t.Errorf("RipupIters 3 stopped early but differs from RipupIters 1:\n got %+v\nwant %+v", m, m1)
	}
	if h, h1 := routeHash(r), routeHash(one); h != h1 {
		t.Errorf("route hash %#x, RipupIters 1 gives %#x", h, h1)
	}

	// A lightly congested design where every pass lowers overflow runs
	// every pass the cap allows, and a second RouteAllCtx on the same
	// router records its passes afresh.
	p = genPlaced(t, tech.ClosedM1, "ripup", 400, 5, 0.75)
	cfg.RipupIters = 0
	initial = routeAll(t, New(p, cfg)).Overflow
	cfg.RipupIters = 4
	r = New(p, cfg)
	for run := 0; run < 2; run++ {
		routeAll(t, r)
		if len(r.ripups) != cfg.RipupIters {
			t.Fatalf("run %d: improving design ran %d rip-up passes %+v, want %d",
				run, len(r.ripups), r.ripups, cfg.RipupIters)
		}
		prev := initial
		for i, ps := range r.ripups {
			if ps.nets == 0 || ps.overflow >= prev {
				t.Fatalf("run %d: setup: pass %d %+v does not lower overflow %d", run, i, ps, prev)
			}
			prev = ps.overflow
		}
	}
}
