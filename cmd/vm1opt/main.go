// Command vm1opt runs the full vertical-M1-aware detailed placement flow
// on one design: generate (or load) → place → route → VM1Opt → reroute,
// printing the before/after metric row of Table 2.
//
// The flow runs under a signal-aware context: Ctrl-C (SIGINT/SIGTERM)
// cancels it gracefully — the optimizer stops starting windows and commits
// the ones in flight, the router stops before its next net — and the
// partial metrics accumulated so far are printed before exiting nonzero.
//
// Usage (synthetic design):
//
//	vm1opt -design aes -arch closedm1 -alpha 1200
//	vm1opt -n 5000 -arch openm1 -seq "10:3:1,20:4:0"
//
// Usage (existing LEF/DEF):
//
//	vm1opt -lef lib.lef -def placed.def -out opt.def
//
// With -lef/-def the cell architecture is the LEF library's.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"vm1place/internal/core"
	"vm1place/internal/expt"
	"vm1place/internal/layout"
	"vm1place/internal/lefdef"
	"vm1place/internal/objective"
	"vm1place/internal/route"
	"vm1place/internal/sta"
	"vm1place/internal/tech"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vm1opt:", err)
		os.Exit(1)
	}
}

func run() error {
	design := flag.String("design", "aes", "paper design name: m0|aes|jpeg|vga")
	n := flag.Int("n", 0, "override instance count (0: paper count)")
	scale := flag.Float64("scale", 1.0, "scale factor on the paper instance count")
	archStr := flag.String("arch", "closedm1",
		"cell architecture: closedm1|openm1 (with -lef/-def: the library's)")
	objStr := flag.String("objective", "",
		"geometry objective: "+strings.Join(objective.Names(), "|")+
			" (default: the paper objective for -arch; overrides -arch)")
	marginDBU := flag.Int64("margin", 0,
		"netsep separation margin in DBU (0: the objective's 4·δ default; needs -objective netsep)")
	slackWeight := flag.Float64("slack-weight", 0,
		"slackalpha criticality weight: critical nets get up to (1+w)× α (0: uniform; needs -objective slackalpha)")
	util := flag.Float64("util", 0.75, "placement utilization")
	alpha := flag.Float64("alpha", -1, "alignment weight (negative: architecture default)")
	seqStr := flag.String("seq", "", "U sequence 'bwUm:lx:ly,...' (default 20:4:1)")
	workers := flag.Int("workers", 0,
		"parallel window solvers (0: available parallelism)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this path on exit")
	lefPath := flag.String("lef", "", "read library LEF (with -def)")
	defPath := flag.String("def", "", "read placed DEF (with -lef)")
	outPath := flag.String("out", "", "write optimized DEF to this path")
	flag.Parse()

	arch, err := parseArch(*archStr)
	if err != nil {
		return err
	}
	if err := checkObjectiveFlags(*objStr, *slackWeight, *marginDBU); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Written on the way out (after the deferred StopCPUProfile),
		// capturing the flow's end-state live heap.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vm1opt: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "vm1opt: memprofile:", err)
			}
		}()
	}

	if *objStr != "" {
		// Validate here so a typo is a clean error, not a panic deep in the
		// flow; the objective dictates the pin architecture it scores.
		o, err := objective.Lookup(*objStr)
		if err != nil {
			return fmt.Errorf("-objective: %w", err)
		}
		arch = o.Arch()
	}

	var seq core.Sequence
	if *seqStr != "" {
		seq, err = parseSeq(*seqStr)
		if err != nil {
			return err
		}
	}

	cfg := expt.FlowConfig{
		Arch:             arch,
		Objective:        *objStr,
		MarginDBU:        *marginDBU,
		SlackAlphaWeight: *slackWeight,
		Util:             *util,
		Sequence:         seq,
		Workers:          *workers,
	}
	if *alpha >= 0 {
		cfg.Alpha = *alpha
		cfg.AlphaSet = true
	}

	if *lefPath != "" || *defPath != "" {
		if *lefPath == "" || *defPath == "" {
			return fmt.Errorf("-lef and -def must be given together")
		}
		archFlag := ""
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "arch" {
				archFlag = *archStr
			}
		})
		return runOnDEF(ctx, *lefPath, *defPath, *outPath, archFlag, cfg)
	}

	spec, err := specFor(*design, *n, *scale)
	if err != nil {
		return err
	}
	r, err := expt.RunFlowCtx(ctx, spec, cfg)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// Graceful Ctrl-C: report what completed before the signal.
			fmt.Fprintln(os.Stderr, "vm1opt: interrupted; partial metrics follow")
			expt.WriteTable2Row(os.Stdout, r)
		}
		return err
	}
	expt.WriteTable2Row(os.Stdout, r)
	return nil
}

// checkObjectiveFlags rejects -slack-weight and -margin values the run
// would silently ignore: only the slackalpha objective reads the slack
// weights, and only netsep reads the margin.
func checkObjectiveFlags(obj string, slackWeight float64, margin int64) error {
	if math.IsNaN(slackWeight) || math.IsInf(slackWeight, 0) || slackWeight < 0 {
		return fmt.Errorf("bad -slack-weight %v (want a finite weight >= 0)", slackWeight)
	}
	if slackWeight > 0 && obj != "slackalpha" {
		return fmt.Errorf("-slack-weight %v needs -objective slackalpha", slackWeight)
	}
	if margin < 0 {
		return fmt.Errorf("bad -margin %d (want >= 0; 0 keeps the netsep default)", margin)
	}
	if margin > 0 && obj != "netsep" {
		return fmt.Errorf("-margin %d needs -objective netsep", margin)
	}
	return nil
}

// specFor resolves -design, -n and -scale into a design spec. -n must be
// non-negative (0 keeps the paper count) and -scale positive and finite,
// so a bad size is an error rather than a silent full-size run.
func specFor(name string, n int, scale float64) (expt.DesignSpec, error) {
	if n < 0 {
		return expt.DesignSpec{}, fmt.Errorf("bad -n %d (want >= 0; 0 keeps the paper count)", n)
	}
	if !(scale > 0) || math.IsInf(scale, 1) {
		return expt.DesignSpec{}, fmt.Errorf("bad -scale %v (want a positive finite factor)", scale)
	}
	for _, d := range expt.PaperDesigns {
		if d.Name == name {
			if n > 0 {
				d.NumInsts = n
			} else if scale != 1.0 {
				d.NumInsts = int(float64(d.NumInsts) * scale)
				if d.NumInsts < expt.MinScaledInsts {
					d.NumInsts = expt.MinScaledInsts
				}
			}
			return d, nil
		}
	}
	return expt.DesignSpec{}, fmt.Errorf("unknown design %q", name)
}

// runOnDEF optimizes an externally supplied placement. archFlag is -arch
// when given explicitly, "" otherwise; the architecture comes from the
// LEF library (see defArch).
func runOnDEF(ctx context.Context, lefPath, defPath, outPath, archFlag string, cfg expt.FlowConfig) error {
	t := tech.Default()
	lf, err := os.Open(lefPath)
	if err != nil {
		return err
	}
	lib, err := lefdef.ParseLEF(lf, t)
	lf.Close()
	if err != nil {
		return err
	}
	if cfg.Arch, err = defArch(lib.Arch, archFlag, cfg.Objective); err != nil {
		return err
	}
	df, err := os.Open(defPath)
	if err != nil {
		return err
	}
	p, err := lefdef.ParseDEF(df, t, lib)
	df.Close()
	if err != nil {
		return err
	}

	prm, err := cfg.Params(p)
	if err != nil {
		return err
	}
	seq := cfg.Sequence
	if seq == nil {
		seq = expt.DefaultSequence()
	}

	before, err := measure(ctx, p, cfg.Arch)
	if err != nil {
		return err
	}
	res, optErr := core.VM1OptCtx(ctx, p, prm, seq)
	// After an interrupt the flow ctx is dead, but the placement is legal;
	// measure the partial result under a fresh context so the user still
	// sees what the truncated optimization achieved.
	afterCtx := ctx
	if optErr != nil {
		afterCtx = context.Background()
	}
	after, err := measure(afterCtx, p, cfg.Arch)
	if err != nil {
		return err
	}
	fmt.Printf("%s: dM1 %d -> %d, RWL %.1f -> %.1f um, HPWL %.1f -> %.1f um, WNS %.3f -> %.3f, opt %.1fs\n",
		p.Design.Name, before.dm1, after.dm1,
		expt.Um(before.rwl), expt.Um(after.rwl),
		expt.Um(before.hpwl), expt.Um(after.hpwl),
		before.wns, after.wns, res.Duration.Seconds())
	if optErr != nil {
		// The interrupted placement is still legal; the numbers above
		// reflect the partial optimization.
		return optErr
	}

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := lefdef.WriteDEF(f, p); err != nil {
			return err
		}
		fmt.Println("wrote", outPath)
	}
	return nil
}

// defArch returns the cell architecture of the -lef/-def path: the one
// the LEF library's pins draw, as lefdef.ParseLEF detects it. An explicit
// -arch (archFlag, "" when not given) or an -objective (obj) scoring
// another architecture is an error, and so is a library the optimizer has
// no objective for.
func defArch(lib tech.Arch, archFlag, obj string) (tech.Arch, error) {
	if lib != tech.ClosedM1 && lib != tech.OpenM1 {
		return 0, fmt.Errorf("the LEF library has %s cells (want ClosedM1 or OpenM1)", lib)
	}
	if archFlag != "" {
		a, err := parseArch(archFlag)
		if err != nil {
			return 0, err
		}
		if a != lib {
			return 0, fmt.Errorf("-arch %s conflicts with the LEF library's %s cells", archFlag, lib)
		}
	}
	if obj != "" {
		o, err := objective.Lookup(obj)
		if err != nil {
			return 0, fmt.Errorf("-objective: %w", err)
		}
		if o.Arch() != lib {
			return 0, fmt.Errorf("-objective %s scores %s cells, but the LEF library has %s cells",
				obj, o.Arch(), lib)
		}
	}
	return lib, nil
}

type quickMetrics struct {
	dm1  int
	rwl  int64
	hpwl int64
	wns  float64
}

func measure(ctx context.Context, p *layout.Placement, arch tech.Arch) (quickMetrics, error) {
	r := route.New(p, route.DefaultConfig(p.Tech, arch))
	m, err := r.RouteAllCtx(ctx)
	if err != nil {
		return quickMetrics{}, err
	}
	rep := sta.Analyze(p, sta.DefaultConfig(), nil)
	return quickMetrics{dm1: m.DM1, rwl: m.RWL, hpwl: p.TotalHPWL(), wns: rep.WNS}, nil
}

// parseArch maps an -arch value to the cell architecture it names. The
// optimizer has an objective only for the two vertical-M1 architectures,
// so anything else (conventional, other spellings, typos) is an error.
func parseArch(s string) (tech.Arch, error) {
	switch s {
	case "closedm1":
		return tech.ClosedM1, nil
	case "openm1":
		return tech.OpenM1, nil
	}
	return 0, fmt.Errorf("unknown -arch %q (want closedm1|openm1)", s)
}

// parseSeq parses "20:4:1,10:3:0" into a core.Sequence. Window widths must
// be positive and finite, move ranges non-negative.
func parseSeq(s string) (core.Sequence, error) {
	var out core.Sequence
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad sequence element %q (want bwUm:lx:ly)", part)
		}
		bw, err1 := strconv.ParseFloat(fields[0], 64)
		lx, err2 := strconv.Atoi(fields[1])
		ly, err3 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || err3 != nil ||
			!(bw > 0) || math.IsInf(bw, 1) || lx < 0 || ly < 0 {
			return nil, fmt.Errorf("bad sequence element %q", part)
		}
		out = append(out, core.ParamSet{
			BW: expt.UmToDBU(bw), BH: expt.UmToDBU(bw), LX: lx, LY: ly,
		})
	}
	return out, nil
}
