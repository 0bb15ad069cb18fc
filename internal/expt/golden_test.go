package expt

import (
	"context"
	"testing"

	"vm1place/internal/core"
	"vm1place/internal/tech"
)

// goldenMetrics strips the wall-clock fields from a FlowResult so runs
// can be compared bit-for-bit.
type goldenMetrics struct {
	Design     string
	NumInsts   int
	Arch       tech.Arch
	Util       float64
	Alpha      float64
	Init       Snapshot
	Final      Snapshot
	OptInit    float64
	OptInitAl  int
	OptFinal   float64
	OptFinalAl int
}

func golden(r FlowResult) goldenMetrics {
	return goldenMetrics{
		Design:     r.Design,
		NumInsts:   r.NumInsts,
		Arch:       r.Arch,
		Util:       r.Util,
		Alpha:      r.Alpha,
		Init:       r.Init,
		Final:      r.Final,
		OptInit:    r.OptInitial.Value,
		OptInitAl:  r.OptInitial.Alignments,
		OptFinal:   r.OptFinal.Value,
		OptFinalAl: r.OptFinal.Alignments,
	}
}

// TestGoldenFlowDeterministic pins the staged-pipeline refactor to the
// monolithic flow it replaced: with a single worker and the wall-clock
// MILP budget disabled (TimeLimit < 0 leaves only the node cap), the
// whole flow is deterministic, so the metrics of repeated runs must be
// bit-identical. Any re-ordering of the stages, an extra routing pass,
// or a lost config field shows up as a diff here.
func TestGoldenFlowDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full deterministic flow is slow")
	}
	spec := ScaledDesigns(0.1)[0] // m0 at paper scale 0.1
	cfg := FlowConfig{
		Arch: tech.ClosedM1,
		// One pass over a single 10um window family keeps the runtime
		// inside the package budget; determinism needs one worker and an
		// untimed (node-capped) MILP, not a particular sequence.
		Sequence:      []core.ParamSet{{BW: UmToDBU(10), BH: UmToDBU(10), LX: 3, LY: 1}},
		MaxOuterIters: 1,
		Workers:       1,
		TimeLimit:     -1,
	}
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
		t.Errorf("flow metrics not bit-identical:\nrun1: %+v\nrun2: %+v", g1, g2)
	}
	if g1.Final.DM1 <= g1.Init.DM1 {
		t.Errorf("golden flow did not improve dM1: %d -> %d", g1.Init.DM1, g1.Final.DM1)
	}

	// FlowConfig.Shards is ignored, so setting it must leave the golden
	// metrics bit for bit unchanged.
	for _, k := range []int{2, 4, 8} {
		ck := cfg
		ck.Shards = k
		rk, err := RunFlowCtx(context.Background(), spec, ck)
		if err != nil {
			t.Fatal(err)
		}
		if gk := golden(rk); gk != g1 {
			t.Errorf("Shards=%d flow metrics diverged:\nsharded: %+v\nbase:    %+v", k, gk, g1)
		}
	}
}
