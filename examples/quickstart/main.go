// Quickstart: the smallest end-to-end vm1place flow.
//
// Generates a ~1000-cell ClosedM1 design, places it, routes it, runs the
// vertical-M1-aware detailed placement optimization (the paper's
// Algorithm 1 with the preferred (20µm, lx=4, ly=1) parameter set), then
// reroutes and reports the improvement.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"

	"vm1place/internal/cells"
	"vm1place/internal/core"
	"vm1place/internal/expt"
	"vm1place/internal/layout"
	"vm1place/internal/netlist"
	"vm1place/internal/place"
	"vm1place/internal/route"
	"vm1place/internal/tech"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. Technology and ClosedM1 standard-cell library.
	t := tech.Default()
	lib, err := cells.NewLibrary(t, tech.ClosedM1)
	if err != nil {
		return err
	}

	// 2. Synthetic gate-level netlist (stands in for synthesized RTL).
	design, err := netlist.Generate(lib, netlist.DefaultGenConfig("quickstart", 1000, 7))
	if err != nil {
		return err
	}
	stats := design.Stats()
	fmt.Printf("design: %d instances, %d nets, avg fanout %.2f\n",
		stats.NumInsts, stats.NumNets, stats.AvgFanout)

	// 3. Floorplan at 75%% utilization, global placement, legalization.
	p, err := layout.NewFloorplan(t, design, 0.75)
	if err != nil {
		return err
	}
	if err := place.Global(p, place.Options{}); err != nil {
		return err
	}

	// 4. Route the initial placement and record baseline metrics.
	router := route.New(p, route.DefaultConfig(t, tech.ClosedM1))
	ctx := context.Background()
	before, err := router.RouteAllCtx(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("initial:   dM1 %4d   RWL %8.1f um   via12 %5d\n",
		before.DM1, expt.Um(before.RWL), before.Via12)

	// 5. Vertical-M1-aware detailed placement (the paper's contribution).
	prm := core.DefaultParams(t, tech.ClosedM1) // α = 1200
	res, err := core.VM1OptCtx(ctx, p, prm, expt.DefaultSequence())
	if err != nil {
		return err
	}
	fmt.Printf("optimizer: alignments %d -> %d in %s\n",
		res.Initial.Alignments, res.Final.Alignments, res.Duration.Round(1e9))

	// 6. Reroute and compare.
	after, err := router.RouteAllCtx(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("optimized: dM1 %4d   RWL %8.1f um   via12 %5d\n",
		after.DM1, expt.Um(after.RWL), after.Via12)
	fmt.Printf("deltas:    dM1 %+.1f%%   RWL %+.2f%%   via12 %+.2f%%\n",
		pct(before.DM1, after.DM1), pct64(before.RWL, after.RWL), pct(before.Via12, after.Via12))
	return nil
}

func pct(a, b int) float64     { return float64(b-a) / float64(a) * 100 }
func pct64(a, b int64) float64 { return float64(b-a) / float64(a) * 100 }
