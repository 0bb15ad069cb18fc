package expt

import (
	"context"
	"testing"

	"vm1place/internal/core"
	"vm1place/internal/tech"
)

// objGoldenCfg is the deterministic single-worker flow configuration the
// workload golden tests share: one pass over one small window family with
// the wall-clock MILP budget disabled, so repeated runs must be
// bit-identical (the same regime as TestGoldenFlowDeterministic).
func objGoldenCfg() FlowConfig {
	return FlowConfig{
		Sequence:      []core.ParamSet{{BW: UmToDBU(10), BH: UmToDBU(10), LX: 3, LY: 1}},
		MaxOuterIters: 1,
		Workers:       1,
		TimeLimit:     -1,
	}
}

// runObjGolden runs one workload flow twice on a floored m0 and pins the
// repeat to bit-identity, returning the metrics for workload-specific
// assertions.
func runObjGolden(t *testing.T, cfg FlowConfig) goldenMetrics {
	t.Helper()
	spec := ScaledDesigns(0.02)[0] // m0 floored to MinScaledInsts
	r1, err := RunFlowCtx(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunFlowCtx(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g1, g2 := golden(r1), golden(r2)
	if g1 != g2 {
		t.Errorf("workload flow metrics not bit-identical:\nrun1: %+v\nrun2: %+v", g1, g2)
	}
	return g1
}

// TestGoldenNetSepFlow pins the netsep workload: the margin-maximization
// objective must run end-to-end on the OpenM1 pin geometry,
// deterministically, and must not regress the optimizer objective.
func TestGoldenNetSepFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("full deterministic flow is slow")
	}
	cfg := objGoldenCfg()
	cfg.Objective = "netsep"
	g := runObjGolden(t, cfg)
	if g.Arch != tech.OpenM1 {
		t.Errorf("netsep flow arch = %v, want OpenM1 (derived from the objective)", g.Arch)
	}
	if g.OptFinal > g.OptInit {
		t.Errorf("netsep optimizer objective regressed: %v -> %v", g.OptInit, g.OptFinal)
	}
	if g.OptFinalAl < g.OptInitAl {
		t.Errorf("netsep in-margin pair count regressed: %d -> %d", g.OptInitAl, g.OptFinalAl)
	}
}

// TestGoldenSlackAlphaFlow pins the timing-driven workload: per-net α
// derived from STA slack, ClosedM1 geometry, deterministic repeats, WNS
// no worse than before and dM1 up.
func TestGoldenSlackAlphaFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("full deterministic flow is slow")
	}
	cfg := objGoldenCfg()
	cfg.Objective = "slackalpha"
	cfg.SlackAlphaWeight = 2
	g := runObjGolden(t, cfg)
	if g.Arch != tech.ClosedM1 {
		t.Errorf("slackalpha flow arch = %v, want ClosedM1 (derived from the objective)", g.Arch)
	}
	if g.OptFinal > g.OptInit {
		t.Errorf("slackalpha optimizer objective regressed: %v -> %v", g.OptInit, g.OptFinal)
	}
	// The timing-driven weighting must keep the paper's "no adverse
	// timing impact" while still gaining direct vertical M1 routes.
	if g.Final.WNS < g.Init.WNS-0.05 {
		t.Errorf("slackalpha flow degraded timing: WNS %f -> %f", g.Init.WNS, g.Final.WNS)
	}
	if g.Final.DM1 <= g.Init.DM1 {
		t.Errorf("slackalpha flow did not improve dM1: %d -> %d", g.Init.DM1, g.Final.DM1)
	}
}

// TestGoldenTrackVariantFlows pins the track-count workload: the ClosedM1
// objective on the 6-track and 9-track cell architectures, each
// deterministic and improving dM1 alignments.
func TestGoldenTrackVariantFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("full deterministic flow is slow")
	}
	for _, tv := range TrackVariants() {
		if tv.Label == "7.5T" {
			continue // the default tech is TestGoldenFlowDeterministic's job
		}
		t.Run(tv.Label, func(t *testing.T) {
			cfg := objGoldenCfg()
			cfg.Objective = "closedm1"
			cfg.Tech = tv.Tech()
			g := runObjGolden(t, cfg)
			if g.OptFinalAl < g.OptInitAl {
				t.Errorf("%s alignment count regressed: %d -> %d", tv.Label, g.OptInitAl, g.OptFinalAl)
			}
		})
	}
}
