package core

import (
	"reflect"
	"testing"
	"time"

	"vm1place/internal/proxy"
	"vm1place/internal/tech"
)

// checkShardsIgnored pins Params.Shards as a no-op: the field outlived
// the sharded inner loop it selected, so Shards 1, 2 and 8 must reproduce
// the unset run bit for bit — placement and Result — and stay legal.
func checkShardsIgnored(t *testing.T, guided bool) {
	t.Helper()
	run := func(shards int) ([]int, []int, []bool, Result) {
		p := genPlaced(t, tech.ClosedM1, 200, 29, 0.75)
		prm := DefaultParams(p.Tech, tech.ClosedM1)
		prm.Workers = 2
		prm.Shards = shards
		prm.MaxNodes = 25
		prm.TimeLimit = 0
		prm.MaxOuterIters = 1
		if guided {
			prm.Guided = true
			prm.Proxy = proxy.New(p, proxy.DefaultConfig(p.Tech, tech.ClosedM1))
		}
		res := VM1Opt(p, prm, Sequence{{BW: 1000, BH: 1000, LX: 2, LY: 1}})
		if err := p.CheckLegal(); err != nil {
			t.Fatalf("Shards=%d guided=%v: illegal placement: %v", shards, guided, err)
		}
		res.Duration, res.PassIdle = 0, nil
		return p.SiteX, p.Row, p.Flip, res
	}
	bs, br, bf, bres := run(0)
	for _, k := range []int{1, 2, 8} {
		s, r, f, res := run(k)
		if !reflect.DeepEqual(res, bres) {
			t.Fatalf("Shards=%d guided=%v result diverged:\n got %+v\nwant %+v", k, guided, res, bres)
		}
		for i := range bs {
			if s[i] != bs[i] || r[i] != br[i] || f[i] != bf[i] {
				t.Fatalf("Shards=%d guided=%v placement diverged at inst %d", k, guided, i)
			}
		}
	}
}

// TestVM1OptShardsInvariance checks Shards is ignored under the uniform
// schedule.
func TestVM1OptShardsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several full optimizer passes")
	}
	checkShardsIgnored(t, false)
}

// TestVM1OptShardsGuidedInvariance checks Shards is ignored under the
// guided schedule, whose family order and budgets come from the proxy.
func TestVM1OptShardsGuidedInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several full optimizer passes")
	}
	checkShardsIgnored(t, true)
}

// TestVM1OptShardsLegalAndTracked checks a short timed run with Shards
// set and several workers composes with the deadline machinery: the
// placement stays legal and the tracked Final matches a fresh rescan.
func TestVM1OptShardsLegalAndTracked(t *testing.T) {
	p := genPlaced(t, tech.ClosedM1, 300, 31, 0.75)
	prm := DefaultParams(p.Tech, tech.ClosedM1)
	prm.Workers = 4
	prm.Shards = 2
	prm.MaxNodes = 40
	prm.TimeLimit = 100 * time.Millisecond
	prm.MaxOuterIters = 1
	res := VM1Opt(p, prm, Sequence{{BW: 2000, BH: 2000, LX: 3, LY: 1}})
	if err := p.CheckLegal(); err != nil {
		t.Fatalf("illegal after timed pass: %v", err)
	}
	if want := CalculateObj(p, prm); res.Final != want {
		t.Fatalf("final objective diverged from rescan:\n got %+v\nwant %+v",
			res.Final, want)
	}
}
