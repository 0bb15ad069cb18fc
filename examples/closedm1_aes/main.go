// ClosedM1 aes flow: an ExptB-1-style run with the full metric report.
//
// Reproduces one Table 2 row (aes, ClosedM1, util 75%, α=1200) at a
// configurable scale, showing every column the paper reports: #dM1, M1
// wirelength, #via12, HPWL, routed wirelength, WNS, power and optimizer
// runtime.
//
//	go run ./examples/closedm1_aes           # 10% scale (~1.2k cells)
//	go run ./examples/closedm1_aes -scale 1  # paper-scale 12345 cells
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"vm1place/internal/expt"
	"vm1place/internal/tech"
)

func main() {
	scale := flag.Float64("scale", 0.1, "fraction of the paper's 12345 instances")
	alpha := flag.Float64("alpha", 1200, "alignment weight α")
	workers := flag.Int("workers", 8, "parallel window solvers")
	flag.Parse()

	spec := expt.ScaledDesigns(*scale)[1] // aes
	fmt.Printf("running aes/ClosedM1 with %d instances, alpha=%.0f ...\n",
		spec.NumInsts, *alpha)

	r, err := expt.RunFlowCtx(context.Background(), spec, expt.FlowConfig{
		Arch:     tech.ClosedM1,
		Alpha:    *alpha,
		AlphaSet: true,
		Workers:  *workers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "closedm1_aes:", err)
		os.Exit(1)
	}

	expt.WriteTable2Row(os.Stdout, r)
	fmt.Printf("\noptimizer detail: alignments %d -> %d, objective %.0f -> %.0f\n",
		r.OptInitial.Alignments, r.OptFinal.Alignments,
		r.OptInitial.Value, r.OptFinal.Value)
	fmt.Printf("route+analysis time: %s\n", r.RouteRuntime.Round(1e8))

	// The paper's headline claims for ClosedM1 (Section 5.2): dM1 up
	// several-fold, RWL and via12 down, no timing degradation.
	if r.Final.DM1 > r.Init.DM1 && r.Final.RWL < r.Init.RWL {
		fmt.Println("✓ reproduces the paper's direction: more dM1, less routed wirelength")
	} else {
		fmt.Println("✗ unexpected: check parameters")
	}
}
