// Command exptables regenerates every evaluation table and figure of the
// DAC'17 paper on the synthetic substrate (see DESIGN.md for the
// experiment index).
//
// Usage:
//
//	exptables -all -scale 0.1            # full suite at 10% instance counts
//	exptables -table2 -scale 1.0         # Table 2 at paper-scale designs
//	exptables -fig6 -arch openm1
//
// The sweeps run under a signal-aware context: Ctrl-C (SIGINT/SIGTERM)
// cancels the flow points in progress at their next window or routed net,
// and exptables exits nonzero with the interruption error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vm1place/internal/expt"
	"vm1place/internal/tech"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "exptables:", err)
		os.Exit(1)
	}
}

func run() error {
	all := flag.Bool("all", false, "run everything")
	fig5 := flag.Bool("fig5", false, "ExptA-1: window/perturbation scalability")
	fig6 := flag.Bool("fig6", false, "ExptA-2: alpha sensitivity")
	fig7 := flag.Bool("fig7", false, "ExptA-3: optimization sequences")
	fig8 := flag.Bool("fig8", false, "congestion/DRV study")
	table2 := flag.Bool("table2", false, "ExptB: full-design results")
	ablate := flag.Bool("ablate", false, "sequential-vs-joint flip ablation")
	objSweep := flag.Bool("objsweep", false,
		"pluggable-objective workloads: netsep margins, slackalpha weights, track-count variants")
	archStr := flag.String("arch", "closedm1", "architecture for -fig6")
	scale := flag.Float64("scale", 0.1, "design scale factor (1.0 = paper instance counts)")
	workers := flag.Int("workers", 8, "parallel window solvers")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := expt.SuiteConfig{Scale: *scale, Workers: *workers}
	any := false
	start := time.Now()

	if *all || *fig5 {
		any = true
		fmt.Println("== ExptA-1 (Figure 5) ==")
		pts, err := expt.RunFig5(ctx, cfg, nil, nil)
		if err != nil {
			return err
		}
		expt.WriteFig5(os.Stdout, pts)
		fmt.Println()
	}
	if *all || *fig6 {
		any = true
		arch := tech.ClosedM1
		if *archStr == "openm1" {
			arch = tech.OpenM1
		}
		fmt.Println("== ExptA-2 (Figure 6) ==")
		pts, err := expt.RunFig6(ctx, cfg, arch, nil)
		if err != nil {
			return err
		}
		expt.WriteFig6(os.Stdout, arch, pts)
		fmt.Println()
	}
	if *all || *fig7 {
		any = true
		fmt.Println("== ExptA-3 (Figure 7) ==")
		pts, err := expt.RunFig7(ctx, cfg, nil)
		if err != nil {
			return err
		}
		expt.WriteFig7(os.Stdout, pts)
		fmt.Println()
	}
	if *all || *table2 {
		any = true
		fmt.Println("== ExptB (Table 2) ==")
		for _, arch := range []tech.Arch{tech.ClosedM1, tech.OpenM1} {
			rows, err := expt.RunTable2(ctx, cfg, arch)
			if err != nil {
				return err
			}
			expt.WriteTable2(os.Stdout, arch, rows)
		}
		fmt.Println()
	}
	if *all || *fig8 {
		any = true
		fmt.Println("== Congestion study (Figure 8) ==")
		pts, err := expt.RunFig8(ctx, cfg, nil)
		if err != nil {
			return err
		}
		expt.WriteFig8(os.Stdout, pts)
		fmt.Println()
	}
	if *all || *ablate {
		any = true
		fmt.Println("== Ablation: sequential vs joint move+flip ==")
		r, err := expt.RunAblationJointFlip(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%s: sequential RWL %.1f um / dM1 %d / %.1fs ; joint RWL %.1f um / dM1 %d / %.1fs\n",
			r.Name,
			float64(r.BaseRWL)/1000, r.BaseDM1, r.BaseSec,
			float64(r.VarRWL)/1000, r.VarDM1, r.VarSec)
		fmt.Println()
	}

	if *all || *objSweep {
		any = true
		fmt.Println("== Objective sweep (pluggable workloads) ==")
		pts, err := expt.RunObjSweep(ctx, cfg)
		if err != nil {
			return err
		}
		expt.WriteObjSweep(os.Stdout, pts)
		fmt.Println()
	}

	if !any {
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("total %s (scale %.2f)\n", time.Since(start).Round(time.Second), *scale)
	return nil
}
