// Command vm1lint runs vm1place's static-invariant suite (see
// internal/analysis): maporder, panicguard, ctxflow, wrapcheck and
// clockrand over the module's non-test sources.
//
// Usage:
//
//	vm1lint [packages]
//
// where packages are module-relative patterns ("./...", "./internal/lp",
// "./internal/..."); the default is "./...". Findings print as
//
//	file:line:col: message (analyzer)
//
// and the exit status is 0 when clean, 1 when there are findings, and 2
// when loading or type-checking fails. Suppress a finding by tagging the
// line (or the line above) with the owning analyzer's marker —
// // order-ok:, // panic-ok:, // wrap-ok:, // clock-ok: — followed by the
// reason. ctxflow findings have no marker: fix them.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"vm1place/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(patterns []string, out, errOut *os.File) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(errOut, "vm1lint: %v\n", err)
		return 2
	}
	root, modulePath, err := analysis.FindModuleRoot(wd)
	if err != nil {
		fmt.Fprintf(errOut, "vm1lint: %v\n", err)
		return 2
	}
	loader := analysis.NewLoader(modulePath, root)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(errOut, "vm1lint: %v\n", err)
		return 2
	}
	findings, err := analysis.Run(loader.Fset, pkgs, analysis.All())
	if err != nil {
		fmt.Fprintf(errOut, "vm1lint: %v\n", err)
		return 2
	}
	for _, f := range findings {
		rel, rerr := filepath.Rel(wd, f.Pos.Filename)
		if rerr != nil || len(rel) > len(f.Pos.Filename) {
			rel = f.Pos.Filename
		}
		fmt.Fprintf(out, "%s:%d:%d: %s (%s)\n", rel, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
	}
	if len(findings) > 0 {
		fmt.Fprintf(errOut, "vm1lint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}
