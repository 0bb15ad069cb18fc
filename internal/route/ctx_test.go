package route

import (
	"context"
	"errors"
	"testing"
	"time"

	"vm1place/internal/tech"
)

// assertUsageMatchesRoutes rips every committed route and checks that the
// usage arrays return to zero: usage is exactly the sum of the committed
// routes, i.e. no partially-committed net leaked edge usage.
func assertUsageMatchesRoutes(t *testing.T, r *Router) {
	t.Helper()
	for ni := range r.routes {
		r.ripNet(ni)
	}
	for e, u := range r.usage {
		if u != 0 {
			t.Fatalf("usage[%d] = %d after ripping all routes", e, u)
		}
	}
}

// TestRouteAllCtxCanceledBeforeStart: a context canceled up front must end
// the run before the first batch commits — no routes, zero usage — with an
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

// TestRouteAllCtxCancelMidRun cancels while batches are routing. The run
// must stop at a batch boundary: every committed net is fully routed and
// accounted in the usage arrays, the partial Metrics cover exactly the
// committed subset, and the router remains reusable for a full rerun.
func TestRouteAllCtxCancelMidRun(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, "ctx-mid", 1500, 23, 0.7)
	cfg := DefaultConfig(p.Tech, tech.ClosedM1)
	r := New(p, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	m, err := r.RouteAllCtx(ctx)
	if err == nil {
		// Routing beat the cancellation; nothing partial to verify.
		t.Skip("routing finished before cancellation landed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	// The partial metrics must be exact over the committed subset: a
	// recompute from the stored routes yields the same numbers.
	before := m
	r.computeMetrics()
	if r.metrics.RWL != before.RWL || r.metrics.M1Segs != before.M1Segs ||
		r.metrics.Via12 != before.Via12 || r.metrics.Overflow != before.Overflow {
		t.Errorf("partial metrics not reproducible: %+v vs %+v", before, r.metrics)
	}

	// The interrupted router is not poisoned: a full uncanceled rerun
	// matches a fresh router bit for bit.
	got := routeAll(t, r)
	want := routeAll(t, New(p, cfg))
	if got != want {
		t.Errorf("rerun after cancel diverged: %+v vs %+v", got, want)
	}
}

// TestRouteAllCtxCancelUsageConsistent verifies the committed-batch
// invariant directly: after a mid-run cancel, ripping every committed
// route drains the usage arrays to zero.
func TestRouteAllCtxCancelUsageConsistent(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, "ctx-usage", 1500, 25, 0.7)
	r := New(p, DefaultConfig(p.Tech, tech.ClosedM1))

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	if _, err := r.RouteAllCtx(ctx); err == nil {
		t.Skip("routing finished before cancellation landed")
	}
	assertUsageMatchesRoutes(t, r)
}
