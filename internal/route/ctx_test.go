package route

import (
	"context"
	"errors"
	"testing"

	"vm1place/internal/tech"
)

// assertUsageMatchesRoutes checks that the usage arrays are exactly the
// sum of the committed routes' edges: no partially committed net leaked
// edge usage and no committed net is missing any.
func assertUsageMatchesRoutes(t *testing.T, r *Router) {
	t.Helper()
	want := make([]int32, len(r.usage))
	for _, nr := range r.routes {
		for _, path := range nr.paths {
			for i := 1; i < len(path); i++ {
				if e := edgeOf(path[i-1], path[i]); e >= 0 {
					want[e]++
				}
			}
		}
	}
	for e, u := range r.usage {
		if u != want[e] {
			t.Fatalf("usage[%d] = %d, committed routes use it %d times", e, u, want[e])
		}
	}
}

// TestRouteAllCtxCanceledBeforeStart: a context canceled up front must end
// the run before the first net commits — no routes, zero usage — with an
// errors.Is-able cancellation error.
func TestRouteAllCtxCanceledBeforeStart(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, "ctx-pre", 300, 21, 0.7)
	r := New(p, DefaultConfig(p.Tech, tech.ClosedM1))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := r.RouteAllCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(r.routes) != 0 {
		t.Errorf("canceled run committed %d routes", len(r.routes))
	}
	if m.RWL != 0 {
		t.Errorf("canceled run reported wirelength: %+v", m)
	}
	assertUsageMatchesRoutes(t, r)
}

// countdownCtx is a context whose Err reports context.Canceled from its
// k-th call on, so a test can cancel RouteAllCtx at an exact net boundary
// without racing a timer. calls counts every Err call.
type countdownCtx struct {
	context.Context
	k, calls int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.k > 0 && c.calls >= c.k {
		return context.Canceled
	}
	return nil
}

// TestRouteAllCtxCancelMidRun cancels halfway through the initial pass. The
// run must stop at a net boundary: every committed net is fully routed and
// accounted in the usage arrays, the partial Metrics cover exactly the
// committed subset, and the router remains reusable for a full rerun.
func TestRouteAllCtxCancelMidRun(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, "ctx-mid", 1500, 23, 0.7)
	cfg := DefaultConfig(p.Tech, tech.ClosedM1)
	fresh := New(p, cfg)
	want := routeAll(t, fresh)
	r := New(p, cfg)

	k := len(fresh.routableNets()) / 2
	m, err := r.RouteAllCtx(&countdownCtx{Context: context.Background(), k: k})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(r.routes) != k-1 {
		t.Errorf("%d nets committed, want %d", len(r.routes), k-1)
	}

	// The partial metrics must be exact over the committed subset: a
	// recompute from the stored routes yields the same numbers.
	before := m
	r.computeMetrics()
	if r.metrics != before {
		t.Errorf("partial metrics not reproducible: %+v vs %+v", before, r.metrics)
	}

	// The interrupted router is not poisoned: a full uncanceled rerun
	// matches a fresh router bit for bit.
	if got := routeAll(t, r); got != want {
		t.Errorf("rerun after cancel diverged: %+v vs %+v", got, want)
	}
}

// TestRouteAllCtxCancelUsageConsistent verifies the committed-net
// invariant directly: after a mid-run cancel, usage is exactly the sum of
// the committed routes.
func TestRouteAllCtxCancelUsageConsistent(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, "ctx-usage", 1500, 25, 0.7)
	cfg := DefaultConfig(p.Tech, tech.ClosedM1)
	fresh := New(p, cfg)
	routeAll(t, fresh)
	r := New(p, cfg)

	k := len(fresh.routableNets()) / 3
	if _, err := r.RouteAllCtx(&countdownCtx{Context: context.Background(), k: k}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(r.routes) != k-1 {
		t.Errorf("%d nets committed, want %d", len(r.routes), k-1)
	}
	assertUsageMatchesRoutes(t, r)
}

// TestRouteAllCtxCancelAtNetBoundary cancels RouteAllCtx at the k-th
// cancellation check, for several k in the initial pass and in the rip-up
// pass. Each interrupted run must report context.Canceled, leave usage equal
// to the sum of its committed routes, return partial Metrics that a
// recompute reproduces, and leave the router reusable: a full rerun equals
// a fresh router.
func TestRouteAllCtxCancelAtNetBoundary(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, "ctx-k", 400, 25, 0.85)
	cfg := DefaultConfig(p.Tech, tech.ClosedM1)
	// Starve M2/M3 so the initial pass overflows and rip-up runs.
	cfg.Caps[tech.M2] = 1
	cfg.Caps[tech.M3] = 1

	fresh := New(p, cfg)
	count := &countdownCtx{Context: context.Background()}
	want, err := fresh.RouteAllCtx(count)
	if err != nil {
		t.Fatal(err)
	}
	wantHash := routeHash(fresh)
	nets := len(fresh.routableNets())
	victims := fresh.ripped
	if victims == 0 {
		t.Fatal("setup: no rip-up pass ran")
	}
	// One check before each net of the initial pass, then one before the
	// rip-up pass and one before each victim it reroutes.
	if total := nets + 1 + victims; count.calls != total {
		t.Fatalf("setup: %d cancellation checks, want %d", count.calls, total)
	}

	// committed is the number of nets holding a route when the k-th
	// check cancels: k-1 in the initial pass; every net at the check
	// before the rip-up pass; and once that pass has ripped its victims,
	// the survivors plus the victims rerouted so far.
	cases := []struct {
		name         string
		k, committed int
	}{
		{"initial-first", 1, 0},
		{"initial-mid", nets / 2, nets/2 - 1},
		{"initial-last", nets, nets - 1},
		{"ripup-start", nets + 1, nets},
		{"ripup-first", nets + 2, nets - victims},
		{"ripup-mid", nets + 2 + victims/2, nets - victims + victims/2},
		{"ripup-last", nets + 1 + victims, nets - 1},
	}
	r := New(p, cfg)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := r.RouteAllCtx(&countdownCtx{Context: context.Background(), k: tc.k})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("k=%d: want context.Canceled, got %v", tc.k, err)
			}
			if r.ripped != 0 {
				t.Errorf("k=%d: canceled run recorded a rip-up pass of %d nets", tc.k, r.ripped)
			}
			if len(r.routes) != tc.committed {
				t.Errorf("k=%d: %d nets committed, want %d", tc.k, len(r.routes), tc.committed)
			}
			assertUsageMatchesRoutes(t, r)
			before := m
			r.computeMetrics()
			if r.metrics != before {
				t.Errorf("k=%d: partial metrics not reproducible:\n got %+v\nrecomputed %+v", tc.k, before, r.metrics)
			}

			if got := routeAll(t, r); got != want {
				t.Errorf("k=%d: rerun after cancel diverged:\n got %+v\nwant %+v", tc.k, got, want)
			}
			if h := routeHash(r); h != wantHash {
				t.Errorf("k=%d: rerun route hash %#x, want %#x", tc.k, h, wantHash)
			}
		})
	}
}
