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
// recorded when the initial pass began searching each connection's own
// bounding box and the rip-up pass began ripping only each overflowed
// edge's excess; any change to net order, relax order, search boxes, cost
// arithmetic or queue order shows up here. Every case runs its rip-up
// pass; closedm1-ripup's raises overflow 5023 → 5242.
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
				RWL: 5314350, LayerWL: [tech.NumLayers]int64{0, 345000, 1621300, 1862250, 1485800},
				Via12: 3297, Via23: 3623, Via34: 2335, DM1: 18, M1Segs: 963, Overflow: 3830,
			},
			hash: 0x3e10caa478930bfc,
		},
		{
			name: "openm1", arch: tech.OpenM1, n: 1000, seed: 62, util: 0.75,
			want: Metrics{
				RWL: 5156700, LayerWL: [tech.NumLayers]int64{0, 994750, 1525500, 1293750, 1342700},
				Via01: 2761, Via12: 4254, Via23: 2451, Via34: 1818, DM1: 51, M1Segs: 2173, Overflow: 2070,
			},
			hash: 0x0702545469787782,
		},
		{
			name: "conventional", arch: tech.Conventional, n: 1000, seed: 63, util: 0.75,
			want: Metrics{
				RWL: 4786600, LayerWL: [tech.NumLayers]int64{0, 0, 1484300, 1939500, 1362800},
				Via12: 2761, Via23: 3970, Via34: 2402, Overflow: 2069,
			},
			hash: 0xa0180b0ea29e31ad,
		},
		{
			name: "closedm1-ripup", arch: tech.ClosedM1, n: 600, seed: 64, util: 0.85, starved: true,
			want: Metrics{
				RWL: 2485750, LayerWL: [tech.NumLayers]int64{0, 185500, 500700, 802250, 997300},
				Via12: 2006, Via23: 2324, Via34: 2393, DM1: 14, M1Segs: 558, Overflow: 5242,
			},
			hash: 0xebeeaef70ea60e23,
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
