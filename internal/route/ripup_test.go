package route

import (
	"context"
	"errors"
	"slices"
	"sort"
	"testing"

	"vm1place/internal/tech"
)

// TestOneRipupPass pins the negotiated-congestion contract: no rip-up pass
// when the initial routing leaves no edge over capacity; otherwise exactly
// one, equal in Metrics and routes to "route every net in its own bounding
// box, rip up the victims ripExcess picks, reroute those nets at
// 2×CongWeight in boxes padded by SearchMargin".
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
	if nets := len(r.routableNets()); count.calls != nets || r.ripped != 0 || r.work[1] != (passWork{}) {
		t.Errorf("overflow-free routing ripped %d nets (rip-up work %+v), %d cancellation checks for %d nets",
			r.ripped, r.work[1], count.calls, nets)
	}

	// A capacity-starved design whose rip-up pass raises overflow, and a
	// lightly congested one whose pass lowers it: one pass either way.
	for _, d := range []struct {
		n       int
		seed    int64
		util    float64
		starved bool
		raises  bool
	}{{600, 64, 0.85, true, true}, {400, 5, 0.75, false, false}} {
		p := genPlaced(t, tech.ClosedM1, "ripup", d.n, d.seed, d.util)
		cfg := cfg
		if d.starved {
			cfg.Caps[tech.M2] = 1
			cfg.Caps[tech.M3] = 1
		}
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
		victims := ref.ripExcess(nets)
		if err := ref.routeNets(context.Background(), victims, 2*cfg.CongWeight, cfg.SearchMargin); err != nil {
			t.Fatal(err)
		}
		ref.metrics = Metrics{}
		want := ref.finishMetrics()

		if r.ripped != len(victims) {
			t.Errorf("n=%d: rip-up pass rerouted %d nets, want %d", d.n, r.ripped, len(victims))
		}
		if r.work[1].searches == 0 {
			t.Errorf("n=%d: rip-up pass counted no searches", d.n)
		}
		if m != want {
			t.Errorf("n=%d: Metrics\n got %+v\nwant %+v", d.n, m, want)
		}
		if h, wh := routeHash(r), routeHash(ref); h != wh {
			t.Errorf("n=%d: route hash %#x, want %#x", d.n, h, wh)
		}
	}
}

// TestInitialPassStaysInBBox: with no edge over capacity only the initial
// pass runs, and it searches each connection's own bounding box, so every
// path node lies inside the bbox of its net's access points.
func TestInitialPassStaysInBBox(t *testing.T) {
	for _, arch := range []tech.Arch{tech.ClosedM1, tech.OpenM1, tech.Conventional} {
		p := genPlaced(t, arch, "bbox", 400, 5, 0.75)
		cfg := DefaultConfig(p.Tech, arch)
		for l := range cfg.Caps {
			cfg.Caps[l] = 100
		}
		r := New(p, cfg)
		if m := routeAll(t, r); m.Overflow != 0 || m.FailedConns != 0 || r.ripped != 0 {
			t.Fatalf("%s: setup: overflow %d, %d failed connections, %d nets ripped",
				arch, m.Overflow, m.FailedConns, r.ripped)
		}
		for ni, nr := range r.routes {
			lo, hi := r.netEpStart[ni], r.netEpStart[ni+1]
			box := r.apRegionOf(r.eps[lo].apStart, r.eps[hi-1].apEnd)
			for _, path := range nr.paths {
				for _, id := range path {
					if l, x, y := r.nodeOf(id); x < box.xlo || x > box.xhi || y < box.ylo || y > box.yhi {
						t.Fatalf("%s: net %d node (%s,%d,%d) outside its access-point box %+v",
							arch, ni, l, x, y, box)
					}
				}
			}
		}
	}
}

// TestRipExcess: on hand-built usage, ripExcess rips, latest-routed
// first, just the nets that clear each edge's excess over capacity,
// returns them in routing order, and leaves no edge over capacity.
func TestRipExcess(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, "victims", 100, 5, 0.75)
	cfg := DefaultConfig(p.Tech, tech.ClosedM1)
	// Two M3 edges (capacity 2): a at column 1, b at column 3.
	grid := New(p, cfg)
	edge := func(x int) []int32 {
		return []int32{grid.nodeID(tech.M3, x, 1), grid.nodeID(tech.M3, x, 2)}
	}
	a, b := edge(1), edge(3)
	for _, tc := range []struct {
		name string
		nets [][][]int32 // per net in routing order, its paths
		want []int
	}{
		// Three nets on a, one over capacity: only the last routed goes.
		{"one-edge", [][][]int32{{a}, {a}, {a}}, []int{2}},
		// a and b one over each; the last net crosses both and clears both.
		{"last-crosses-both", [][][]int32{{a}, {b}, {a}, {b}, {a, b}}, []int{4}},
		// The first net crosses both, but later nets clear a and b first.
		{"first-crosses-both", [][][]int32{{a, b}, {a}, {b}, {a}, {b}}, []int{3, 4}},
		// No edge over capacity: no victim.
		{"at-capacity", [][][]int32{{a}, {a, b}, {b}}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New(p, cfg)
			var nets []int
			for ni, paths := range tc.nets {
				r.routes[ni] = &netRoute{paths: paths}
				for _, path := range paths {
					r.addUsage(path, +1)
				}
				nets = append(nets, ni)
			}
			if got := r.ripExcess(nets); !slices.Equal(got, tc.want) {
				t.Errorf("victims %v, want %v", got, tc.want)
			}
			if len(r.routes) != len(nets)-len(tc.want) || r.totalOverflow() != 0 {
				t.Errorf("%d of %d nets left, overflow %d after ripping", len(r.routes), len(nets), r.totalOverflow())
			}
		})
	}
}
