package sta

import (
	"math"
	"testing"

	"vm1place/internal/cells"
	"vm1place/internal/layout"
	"vm1place/internal/netlist"
	"vm1place/internal/place"
	"vm1place/internal/tech"
)

func slackFixture(t *testing.T, n int, seed int64) (*layout.Placement, Config) {
	t.Helper()
	tc := tech.Default()
	lib := cells.MustNewLibrary(tc, tech.ClosedM1)
	d := netlist.MustGenerate(lib, netlist.DefaultGenConfig("slk", n, seed))
	p := layout.MustNewFloorplan(tc, d, 0.75)
	if err := place.Global(p, place.Options{}); err != nil {
		t.Fatal(err)
	}
	return p, DefaultConfig()
}

func TestNetSlacksMatchWNS(t *testing.T) {
	p, cfg := slackFixture(t, 600, 91)
	rep := Analyze(p, cfg, nil)
	slacks := NetSlacks(p, cfg, nil)
	minSlack := math.Inf(1)
	for ni, s := range slacks {
		if p.Design.Nets[ni].IsClock {
			if !math.IsInf(s, 1) {
				t.Errorf("clock net slack = %f, want +Inf", s)
			}
			continue
		}
		if s < minSlack {
			minSlack = s
		}
	}
	if rep.WNS < 0 {
		if math.Abs(minSlack-rep.WNS) > 0.01 {
			t.Errorf("min net slack %f != WNS %f", minSlack, rep.WNS)
		}
	} else if minSlack < -0.01 {
		t.Errorf("WNS = 0 but min slack %f < 0", minSlack)
	}
}

func TestSlacksRespondToClock(t *testing.T) {
	p, cfg := slackFixture(t, 400, 92)
	tight := cfg
	tight.ClockPeriodNs = 0.5
	loose := cfg
	loose.ClockPeriodNs = 50
	sTight := NetSlacks(p, tight, nil)
	sLoose := NetSlacks(p, loose, nil)
	for ni := range sTight {
		if math.IsInf(sTight[ni], 1) {
			continue
		}
		if sLoose[ni] <= sTight[ni] {
			t.Fatalf("net %d: loose clock slack %f not above tight %f",
				ni, sLoose[ni], sTight[ni])
		}
	}
}

func TestCriticalityBetas(t *testing.T) {
	slacks := []float64{math.Inf(1), -0.5, 0, 1.0, 2.0, 5.0}
	betas := CriticalityBetas(slacks, 2.0, 3.0)
	if betas[0] != 1 {
		t.Errorf("unconstrained beta = %f", betas[0])
	}
	if betas[1] != 4 || betas[2] != 4 {
		t.Errorf("critical betas = %f, %f, want 4", betas[1], betas[2])
	}
	if math.Abs(betas[3]-2.5) > 1e-9 {
		t.Errorf("half-critical beta = %f, want 2.5", betas[3])
	}
	if betas[4] != 1 || betas[5] != 1 {
		t.Errorf("relaxed betas = %f, %f, want 1", betas[4], betas[5])
	}
	for _, b := range betas {
		if b < 1 {
			t.Errorf("beta %f below 1", b)
		}
	}
}

// TestCriticalityBetasOnPlacedDesign runs NetSlacks and CriticalityBetas
// on a globally placed design: one multiplier per net, and at least one
// net weighted as critical. The optimizer's use of these weights (the
// slackalpha objective) is pinned by expt's TestGoldenSlackAlphaFlow.
func TestCriticalityBetasOnPlacedDesign(t *testing.T) {
	p, cfg := slackFixture(t, 300, 93)
	slacks := NetSlacks(p, cfg, nil)
	betas := CriticalityBetas(slacks, cfg.ClockPeriodNs, 2.0)
	if len(betas) != len(p.Design.Nets) {
		t.Fatalf("beta length %d, want %d", len(betas), len(p.Design.Nets))
	}
	nGT1 := 0
	for _, b := range betas {
		if b > 1 {
			nGT1++
		}
	}
	if nGT1 == 0 {
		t.Error("no net received a criticality weight (suspicious)")
	}
}
