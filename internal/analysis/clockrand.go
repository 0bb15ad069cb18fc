package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ClockRandAnalyzer confines wall-clock reads and global randomness to
// the packages that legitimately own them, so no new nondeterminism
// leaks into the kernels whose outputs the paper's tables depend on.
//
// Allowed without tags:
//
//   - lp and milp (simplex/branch-and-bound deadlines),
//   - flow and expt (stage and flow wall timings),
//   - everything outside internal/ (cmd/ binaries, examples).
//
// Everywhere else under internal/, time.Now/Since/Until/After/Tick and
// the timer constructors are flagged, as is any use of math/rand's
// global source (rand.Intn, rand.Shuffle, ...). Seeded generators via
// rand.New(rand.NewSource(seed)) are always fine — that is the
// reproducible idiom netlist generation already uses. Legitimate
// stragglers (e.g. core's Result.Duration stamp, which reports wall time
// but never feeds a decision) carry `// clock-ok: <reason>`.
var ClockRandAnalyzer = &Analyzer{
	Name: "clockrand",
	Doc:  "confines wall-clock and global math/rand usage to deadline/timing packages",
	Tag:  "clock-ok",
	Run:  runClockRand,
}

// clockAllowedPrefixes are the internal packages that own deadlines and
// timings.
var clockAllowedPrefixes = []string{
	"vm1place/internal/lp",
	"vm1place/internal/milp",
	"vm1place/internal/flow",
	"vm1place/internal/expt",
}

func clockAllowed(path string) bool {
	if !isInternalPkg(path) {
		return true
	}
	for _, p := range clockAllowedPrefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// wallClockFuncs are the time package functions that read the wall clock
// or start wall-clock timers.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTicker": true, "NewTimer": true, "AfterFunc": true,
}

// randCtorFuncs are the math/rand constructors that build explicit,
// seedable generators — the deterministic idiom, always allowed.
var randCtorFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runClockRand(pass *Pass) error {
	if clockAllowed(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			// Only package-level selections (time.Now), not method calls
			// on values (rng.Intn is the deterministic idiom).
			if _, isPkg := pass.TypesInfo.Uses[rootIdent(sel.X)].(*types.PkgName); !isPkg {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if wallClockFuncs[obj.Name()] {
					pass.Reportf(sel.Pos(), "time.%s in deterministic package: wall clock must not influence results; move to a deadline-owning layer or tag // clock-ok:", obj.Name())
				}
			case "math/rand", "math/rand/v2":
				if !randCtorFuncs[obj.Name()] {
					pass.Reportf(sel.Pos(), "global math/rand source (rand.%s) in deterministic package: use a seeded rand.New(rand.NewSource(seed))", obj.Name())
				}
			}
			return true
		})
	}
	return nil
}
