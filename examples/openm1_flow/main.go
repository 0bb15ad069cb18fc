// OpenM1 walkthrough: pin-overlap-driven optimization (Section 3.2).
//
// OpenM1 cells expose horizontal M0 pins; a direct vertical M1 route
// exists wherever two connected pins' x-extents overlap by at least δ.
// This example shows the overlap objective in action at the window level
// and then runs the full flow, contrasting the smaller OpenM1 gains the
// paper reports (ExptB-2) with ClosedM1.
//
//	go run ./examples/openm1_flow
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
		fmt.Fprintln(os.Stderr, "openm1_flow:", err)
		os.Exit(1)
	}
}

func run() error {
	t := tech.Default()
	lib, err := cells.NewLibrary(t, tech.OpenM1)
	if err != nil {
		return err
	}

	// Show the raw geometry the OpenM1 MILP reasons about.
	inv := lib.MustMaster("INV_X1")
	a := inv.Pin("A")
	zn := inv.Pin("ZN")
	fmt.Printf("OpenM1 INV_X1: A extent %v, ZN extent %v (delta = %d DBU)\n",
		cells.XExtent(inv, t, a, false), cells.XExtent(inv, t, zn, false), t.Delta)

	// Full flow on a small OpenM1 design.
	design, err := netlist.Generate(lib, netlist.DefaultGenConfig("openm1", 1200, 11))
	if err != nil {
		return err
	}
	p, err := layout.NewFloorplan(t, design, 0.75)
	if err != nil {
		return err
	}
	if err := place.Global(p, place.Options{}); err != nil {
		return err
	}

	router := route.New(p, route.DefaultConfig(t, tech.OpenM1))
	ctx := context.Background()
	before, err := router.RouteAllCtx(ctx)
	if err != nil {
		return err
	}

	prm := core.DefaultParams(t, tech.OpenM1) // α = 1000, ε > 0, γ = 3
	fmt.Printf("params: alpha=%.0f epsilon=%.2f gamma=%d rows, delta=%d DBU\n",
		prm.Alpha, core.Epsilon, t.Gamma, t.Delta)

	res, err := core.VM1OptCtx(ctx, p, prm, expt.DefaultSequence())
	if err != nil {
		return err
	}
	after, err := router.RouteAllCtx(ctx)
	if err != nil {
		return err
	}

	fmt.Printf("overlapping pairs: %d -> %d (overlap surplus %d -> %d DBU)\n",
		res.Initial.Alignments, res.Final.Alignments,
		res.Initial.OverlapSum, res.Final.OverlapSum)
	fmt.Printf("dM1 %d -> %d, RWL %.1f -> %.1f um, via01 %d -> %d\n",
		before.DM1, after.DM1,
		float64(before.RWL)/1000, float64(after.RWL)/1000,
		before.Via01, after.Via01)
	fmt.Println()
	fmt.Println("Note (paper §5.2): OpenM1 gains are structurally smaller than")
	fmt.Println("ClosedM1 — dM1 blocks M1 pin access for other nets, so the")
	fmt.Println("router monetizes fewer of the overlaps the placer creates.")
	return nil
}
