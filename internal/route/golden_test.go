package route

import (
	"context"
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
// three architectures, including a capacity-starved one whose rip-up
// passes run. Every Workers value must reproduce the same values. The
// golden values were recorded before the search state was compacted
// (node interleaving, 16-byte node records, intrusive bucket lists); any
// change to relax order, cost arithmetic or queue order shows up here.
// On the closedm1-ripup case the first rip-up pass raises overflow
// 5012 → 5207, so the loop stops there and a second pass never runs.
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
				RWL: 5503400, LayerWL: [tech.NumLayers]int64{0, 371500, 1639900, 1998500, 1493500},
				Via12: 3336, Via23: 3932, Via34: 2635, DM1: 17, M1Segs: 1028, Overflow: 3953,
			},
			hash: 0xefc557d966bf30e6,
		},
		{
			name: "openm1", arch: tech.OpenM1, n: 1000, seed: 62, util: 0.75,
			want: Metrics{
				RWL: 5388900, LayerWL: [tech.NumLayers]int64{0, 1009750, 1529200, 1500250, 1349700},
				Via01: 2761, Via12: 4307, Via23: 2708, Via34: 2030, DM1: 53, M1Segs: 2220, Overflow: 2023,
			},
			hash: 0xac2b0885d54352f7,
		},
		{
			name: "conventional", arch: tech.Conventional, n: 1000, seed: 63, util: 0.75,
			want: Metrics{
				RWL: 4931650, LayerWL: [tech.NumLayers]int64{0, 0, 1497300, 2049750, 1384600},
				Via12: 2761, Via23: 4300, Via34: 2793, Overflow: 2206,
			},
			hash: 0xe3adc67e36f2e645,
		},
		{
			name: "closedm1-ripup", arch: tech.ClosedM1, n: 600, seed: 64, util: 0.85, starved: true,
			want: Metrics{
				RWL: 2491250, LayerWL: [tech.NumLayers]int64{0, 189500, 497700, 807250, 996800},
				Via12: 1978, Via23: 2326, Via34: 2436, DM1: 13, M1Segs: 572, Overflow: 5207,
			},
			hash: 0x61a659ccff25c0ee,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := genPlaced(t, tc.arch, "golden", tc.n, tc.seed, tc.util)
			for _, w := range []int{1, 2} {
				cfg := DefaultConfig(p.Tech, tc.arch)
				cfg.Workers = w
				if tc.starved {
					cfg.Caps[tech.M2] = 1
					cfg.Caps[tech.M3] = 1
				}
				r := New(p, cfg)
				m, err := r.RouteAllCtx(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				got := routeHash(r)
				t.Logf("Workers=%d: %#v hash %#x", w, m, got)
				if m != tc.want {
					t.Errorf("Workers=%d Metrics:\n got %+v\nwant %+v", w, m, tc.want)
				}
				if got != tc.hash {
					t.Errorf("Workers=%d route hash %#x, want %#x", w, got, tc.hash)
				}
				checkOverflowGrid(t, r, m)
			}
		})
	}
}

// checkOverflowGrid checks OverflowGrid against its contract on a routed
// design: ceil(sites/ts) x ceil(rows/tr) tiles whose sum is
// Metrics.Overflow, for several tilings, and a reused buffer is refilled
// rather than accumulated into.
func checkOverflowGrid(t *testing.T, r *Router, m Metrics) {
	t.Helper()
	sites, rows := r.p.NumSites, r.p.NumRows
	for _, ts := range [][2]int{{1, 1}, {7, 3}, {16, 4}, {sites, rows}} {
		var grid []int64
		for rep := 0; rep < 2; rep++ {
			grid = r.OverflowGrid(ts[0], ts[1], grid)
			tiles := (sites + ts[0] - 1) / ts[0] * ((rows + ts[1] - 1) / ts[1])
			if len(grid) != tiles {
				t.Fatalf("OverflowGrid(%d, %d) has %d tiles, want %d", ts[0], ts[1], len(grid), tiles)
			}
			var sum int64
			for _, v := range grid {
				sum += v
			}
			if sum != int64(m.Overflow) {
				t.Errorf("OverflowGrid(%d, %d) pass %d sums to %d, want Metrics.Overflow %d",
					ts[0], ts[1], rep, sum, m.Overflow)
			}
		}
	}
}

// TestSeqStampRestart: a searcher whose push stamps reach seqLimit wipes
// its node records and restarts the count without changing any route.
func TestSeqStampRestart(t *testing.T) {
	p := genPlaced(t, tech.OpenM1, "stamp", 300, 65, 0.75)
	cfg := DefaultConfig(p.Tech, tech.OpenM1)
	cfg.Workers = 1
	want := routeAll(t, New(p, cfg))

	r := New(p, cfg)
	routeAll(t, r)
	s := r.searchers[0]
	s.base = seqLimit - 1
	if got := routeAll(t, r); got != want {
		t.Errorf("after stamp restart:\n got %+v\nwant %+v", got, want)
	}
	if s.base >= seqLimit/2 {
		t.Errorf("stamp base %d never restarted", s.base)
	}
}
