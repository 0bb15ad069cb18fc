// Package analysis is vm1place's static-invariant suite: a set of custom
// analyzers that mechanically enforce the properties the reproduction's
// results depend on — bit-determinism of the single-worker flow, panic
// discipline in library code, end-to-end context propagation, and the
// structured-error contract.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis API
// (Analyzer, Pass, Diagnostic, and an analysistest-style fixture runner
// with `// want` comments) but is self-contained on the standard library:
// the build environment is offline, so packages are loaded and
// type-checked through go/parser + go/types with the stdlib source
// importer instead of x/tools' go/packages. Should the x/tools dependency
// become available, each analyzer's Run func ports over unchanged.
//
// Invariants are suppressible only at tagged sites: a `// <tag>-ok:
// reason` comment on the flagged line (or the line above) silences the
// analyzer that owns the tag. The colon and reason are part of the
// convention — an untagged suppression is a review smell.
//
// The suite runs as `cmd/vm1lint ./...` from `make lint` / `make check`,
// and TestSelfCheck keeps the repository itself at zero findings.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker. It mirrors
// golang.org/x/tools/go/analysis.Analyzer so the Run functions are
// portable to the real driver.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test output.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Tag is the suppression-comment prefix (e.g. "order-ok"): a comment
	// containing "<Tag>:" on the flagged line or the line above silences
	// this analyzer's diagnostics at that site. Empty means the
	// analyzer's findings cannot be suppressed.
	Tag string
	// Run reports diagnostics for one type-checked package.
	Run func(*Pass) error
}

// Pass provides one analyzer run with a single type-checked package and a
// sink for its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers a diagnostic. Suppression tags are applied by the
	// driver, not the analyzer.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a resolved diagnostic: position plus the analyzer that
// produced it, as emitted by Run.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// All returns the full vm1lint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		MapOrderAnalyzer,
		PanicGuardAnalyzer,
		CtxFlowAnalyzer,
		WrapCheckAnalyzer,
		ClockRandAnalyzer,
	}
}

// errorType is the universe error interface, shared by several analyzers.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	return types.Implements(t, errorType)
}

// isPkgFunc reports whether call is a call of the package-level function
// pkgPath.name (e.g. "os".Exit), resolved through the type info so local
// shadows and renamed imports are handled.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// rootIdent returns the leftmost identifier of a selector chain, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
