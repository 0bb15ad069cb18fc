package route

import (
	"hash/fnv"
	"testing"

	"vm1place/internal/tech"
)

// routeHash is an FNV-1a digest of every committed route in net order:
// for each connection path its dM1 flag and the decoded (layer, x, y) of
// every node. It depends only on the routes, never on how node ids are
// encoded, so it pins the search kernel's exact output across rewrites of
// its internal state.
func routeHash(r *Router) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v int) {
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:])
	}
	for ni := range r.p.Design.Nets {
		nr := r.routes[ni]
		if nr == nil {
			continue
		}
		put(ni)
		put(nr.pinConns)
		for pi, path := range nr.paths {
			put(len(path))
			if nr.dm1[pi] {
				put(1)
			} else {
				put(0)
			}
			for _, id := range path {
				l, x, y := r.nodeOf(id)
				put(int(l))
				put(x)
				put(y)
			}
		}
	}
	return h.Sum64()
}

// TestRouteMetricsGolden pins the router's exact output — full Metrics
// and a digest of every net's decoded paths — on seeded designs for all
// three architectures, including a capacity-starved one. The values were
// recorded when negotiated congestion became a single rip-up pass; any
// change to net order, relax order, cost arithmetic or queue order shows
// up here. Every case runs its rip-up pass. The closedm1-ripup values
// predate that change: its one pass raises overflow 5017 → 5178, so the
// old stop rule never ran a second pass there either.
func TestRouteMetricsGolden(t *testing.T) {
	cases := []struct {
		name    string
		arch    tech.Arch
		n       int
		seed    int64
		util    float64
		starved bool
		want    Metrics
		hash    uint64
	}{
		{
			name: "closedm1", arch: tech.ClosedM1, n: 1000, seed: 61, util: 0.75,
			want: Metrics{
				RWL: 5320300, LayerWL: [tech.NumLayers]int64{0, 362000, 1631400, 1844000, 1482900},
				Via12: 3315, Via23: 3541, Via34: 2351, DM1: 18, M1Segs: 1023, Overflow: 3839,
			},
			hash: 0x824bf665b3433eb7,
		},
		{
			name: "openm1", arch: tech.OpenM1, n: 1000, seed: 62, util: 0.75,
			want: Metrics{
				RWL: 5168550, LayerWL: [tech.NumLayers]int64{0, 994000, 1525900, 1303250, 1345400},
				Via01: 2761, Via12: 4252, Via23: 2409, Via34: 1811, DM1: 49, M1Segs: 2212, Overflow: 2111,
			},
			hash: 0x796205216fa33187,
		},
		{
			name: "conventional", arch: tech.Conventional, n: 1000, seed: 63, util: 0.75,
			want: Metrics{
				RWL: 4788950, LayerWL: [tech.NumLayers]int64{0, 0, 1489400, 1932750, 1366800},
				Via12: 2761, Via23: 3956, Via34: 2409, Overflow: 2078,
			},
			hash: 0x4c3aae8f87ad4e7b,
		},
		{
			name: "closedm1-ripup", arch: tech.ClosedM1, n: 600, seed: 64, util: 0.85, starved: true,
			want: Metrics{
				RWL: 2486750, LayerWL: [tech.NumLayers]int64{0, 189750, 495500, 810000, 991500},
				Via12: 1985, Via23: 2363, Via34: 2478, DM1: 13, M1Segs: 573, Overflow: 5178,
			},
			hash: 0xe39e7b0685d6c5f4,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := genPlaced(t, tc.arch, "golden", tc.n, tc.seed, tc.util)
			cfg := DefaultConfig(p.Tech, tc.arch)
			if tc.starved {
				cfg.Caps[tech.M2] = 1
				cfg.Caps[tech.M3] = 1
			}
			r := New(p, cfg)
			m := routeAll(t, r)
			got := routeHash(r)
			t.Logf("%#v hash %#x", m, got)
			if m != tc.want {
				t.Errorf("Metrics:\n got %+v\nwant %+v", m, tc.want)
			}
			if got != tc.hash {
				t.Errorf("route hash %#x, want %#x", got, tc.hash)
			}
		})
	}
}

// TestSeqStampRestart: a searcher whose push stamps reach seqLimit wipes
// its node records and restarts the count without changing any route.
func TestSeqStampRestart(t *testing.T) {
	p := genPlaced(t, tech.OpenM1, "stamp", 300, 65, 0.75)
	cfg := DefaultConfig(p.Tech, tech.OpenM1)
	want := routeAll(t, New(p, cfg))

	r := New(p, cfg)
	routeAll(t, r)
	s := r.s
	s.base = seqLimit - 1
	if got := routeAll(t, r); got != want {
		t.Errorf("after stamp restart:\n got %+v\nwant %+v", got, want)
	}
	if s.base >= seqLimit/2 {
		t.Errorf("stamp base %d never restarted", s.base)
	}
}
