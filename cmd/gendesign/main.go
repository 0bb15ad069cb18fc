// Command gendesign generates a synthetic benchmark design (the stand-in
// for the paper's synthesized OpenCores/Cortex-M0 testcases), places it,
// and writes LEF/DEF.
//
// Usage:
//
//	gendesign -name aes -n 12345 -arch closedm1 -util 0.75 \
//	          -lef out.lef -def out.def
package main

import (
	"flag"
	"fmt"
	"os"

	"vm1place/internal/cells"
	"vm1place/internal/expt"
	"vm1place/internal/layout"
	"vm1place/internal/lefdef"
	"vm1place/internal/netlist"
	"vm1place/internal/place"
	"vm1place/internal/tech"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gendesign:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("name", "design", "design name")
	n := flag.Int("n", 5000, "instance count")
	seed := flag.Int64("seed", 1, "generator seed")
	archStr := flag.String("arch", "closedm1", "cell architecture: closedm1|openm1|conventional")
	util := flag.Float64("util", 0.75, "placement utilization")
	lefPath := flag.String("lef", "", "write library LEF to this path")
	defPath := flag.String("def", "", "write placed DEF to this path")
	flag.Parse()

	arch, err := parseArch(*archStr)
	if err != nil {
		return err
	}
	t := tech.Default()
	lib, err := cells.NewLibrary(t, arch)
	if err != nil {
		return err
	}
	d, err := netlist.Generate(lib, netlist.DefaultGenConfig(*name, *n, *seed))
	if err != nil {
		return err
	}
	p, err := layout.NewFloorplan(t, d, *util)
	if err != nil {
		return err
	}
	if err := place.Global(p, place.Options{}); err != nil {
		return err
	}
	st := d.Stats()
	fmt.Printf("%s: %d insts (%d FFs), %d nets, %d ports, die %d sites x %d rows, HPWL %.1f um\n",
		d.Name, st.NumInsts, st.NumFFs, st.NumNets, st.NumPorts,
		p.NumSites, p.NumRows, expt.Um(p.TotalHPWL()))

	if *lefPath != "" {
		if err := writeTo(*lefPath, func(f *os.File) error { return lefdef.WriteLEF(f, lib) }); err != nil {
			return err
		}
		fmt.Println("wrote", *lefPath)
	}
	if *defPath != "" {
		if err := writeTo(*defPath, func(f *os.File) error { return lefdef.WriteDEF(f, p) }); err != nil {
			return err
		}
		fmt.Println("wrote", *defPath)
	}
	return nil
}

func parseArch(s string) (tech.Arch, error) {
	switch s {
	case "closedm1":
		return tech.ClosedM1, nil
	case "openm1":
		return tech.OpenM1, nil
	case "conventional":
		return tech.Conventional, nil
	}
	return 0, fmt.Errorf("unknown architecture %q", s)
}

func writeTo(path string, f func(*os.File) error) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	defer file.Close()
	return f(file)
}
