package route

import (
	"context"
	"errors"
	"sort"
	"testing"

	"vm1place/internal/tech"
)

// TestOneRipupPass pins the negotiated-congestion contract: no rip-up pass
// when the initial routing leaves no edge over capacity; otherwise exactly
// one, equal in Metrics and routes to "route every net, rip up every net
// that crosses an overflowed edge, reroute those nets at 2×CongWeight".
func TestOneRipupPass(t *testing.T) {
	cfg := DefaultConfig(tech.Default(), tech.ClosedM1)

	// Tracks to spare on every layer: one cancellation check per net and
	// none for a rip-up pass.
	wide := cfg
	for l := range wide.Caps {
		wide.Caps[l] = 100
	}
	p := genPlaced(t, tech.ClosedM1, "ripup", 400, 5, 0.75)
	r := New(p, wide)
	count := &countdownCtx{Context: context.Background()}
	m, err := r.RouteAllCtx(count)
	if err != nil {
		t.Fatal(err)
	}
	if m.Overflow != 0 {
		t.Fatalf("setup: uncongested design overflows %d", m.Overflow)
	}
	if nets := len(r.routableNets()); count.calls != nets || r.ripped != 0 {
		t.Errorf("overflow-free routing ripped %d nets, %d cancellation checks for %d nets",
			r.ripped, count.calls, nets)
	}

	// A route-heavy-like design whose rip-up pass raises overflow, and a
	// lightly congested one whose pass lowers it: one pass either way.
	for _, d := range []struct {
		n      int
		seed   int64
		raises bool
	}{{1200, 1, true}, {400, 5, false}} {
		p := genPlaced(t, tech.ClosedM1, "ripup", d.n, d.seed, 0.75)
		r := New(p, cfg)
		m := routeAll(t, r)

		ref := New(p, cfg)
		nets := r.routableNets()
		// Stop at the check before the rip-up pass: every net routed once.
		_, err := ref.RouteAllCtx(&countdownCtx{Context: context.Background(), k: len(nets) + 1})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("n=%d: want context.Canceled before the rip-up pass, got %v", d.n, err)
		}
		initial := ref.totalOverflow()
		if initial == 0 || (m.Overflow > initial) != d.raises {
			t.Fatalf("n=%d: setup: rip-up pass takes overflow %d → %d", d.n, initial, m.Overflow)
		}
		sort.SliceStable(nets, func(a, b int) bool { return p.NetHPWL(nets[a]) < p.NetHPWL(nets[b]) })
		victims := ref.overflowVictims(nets)
		for _, ni := range victims {
			ref.ripNet(ni)
		}
		if err := ref.routeNets(context.Background(), victims, 2*cfg.CongWeight); err != nil {
			t.Fatal(err)
		}
		ref.metrics = Metrics{}
		want := ref.finishMetrics()

		if r.ripped != len(victims) {
			t.Errorf("n=%d: rip-up pass rerouted %d nets, want %d", d.n, r.ripped, len(victims))
		}
		if m != want {
			t.Errorf("n=%d: Metrics\n got %+v\nwant %+v", d.n, m, want)
		}
		if h, wh := routeHash(r), routeHash(ref); h != wh {
			t.Errorf("n=%d: route hash %#x, want %#x", d.n, h, wh)
		}
	}
}
