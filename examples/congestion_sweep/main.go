// Congestion sweep: the Figure 8 study — DRV reduction at high
// utilization.
//
// Increases placement utilization on aes/ClosedM1 to induce congestion
// hotspots, then shows that the vertical-M1 optimization removes a
// substantial fraction of the resulting DRVs (routing overflows) while
// increasing direct vertical M1 routes.
//
//	go run ./examples/congestion_sweep
//	go run ./examples/congestion_sweep -scale 0.2 -utils 0.75,0.80,0.84
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"vm1place/internal/expt"
)

func main() {
	scale := flag.Float64("scale", 0.08, "fraction of the paper's aes size")
	utilsStr := flag.String("utils", "0.75,0.80,0.84", "comma-separated utilizations")
	workers := flag.Int("workers", 8, "parallel window solvers")
	flag.Parse()

	var utils []float64
	for _, f := range strings.Split(*utilsStr, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bad utilization:", f)
			os.Exit(2)
		}
		utils = append(utils, v)
	}

	cfg := expt.SuiteConfig{Scale: *scale, Workers: *workers}
	fmt.Printf("sweeping utilization on aes/ClosedM1 at scale %.2f ...\n\n", *scale)
	pts, err := expt.RunFig8(context.Background(), cfg, utils)
	if err != nil {
		fmt.Fprintln(os.Stderr, "congestion_sweep:", err)
		os.Exit(1)
	}
	expt.WriteFig8(os.Stdout, pts)

	saved := 0
	for _, p := range pts {
		saved += p.DRVsOrig - p.DRVsOpt
	}
	fmt.Printf("\ntotal DRVs avoided across the sweep: %d\n", saved)
}
