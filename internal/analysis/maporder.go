package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrderAnalyzer flags `range` statements over maps whose bodies have
// order-dependent effects inside the deterministic packages — the exact
// bug class PR 5 fixed by hand in the wmilp occupancy rows, where map
// iteration order leaked into MILP row order and broke bit-reproducible
// single-worker runs.
//
// An effect is order-dependent when the loop body
//
//   - appends to a slice declared outside the loop (element order follows
//     map order),
//   - calls an ordered sink — a method or function whose name starts with
//     Add/Append/Push/Write/Print/Fprint (LP/MILP row builders, buffers,
//     writers),
//   - sends on a channel, or
//   - accumulates into an outer floating-point variable with a compound
//     assignment (float addition is not associative, so even a
//     commutative-looking sum depends on order).
//
// Loops that only read, write map entries keyed by the loop variable, or
// fill position-indexed slots are order-independent and pass. Legitimate
// sites — e.g. collecting keys that are sorted immediately afterwards —
// carry an `// order-ok: <reason>` tag.
var MapOrderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "flags map iteration with order-dependent effects in deterministic packages",
	Tag:  "order-ok",
	Run:  runMapOrder,
}

// deterministicPkgPrefixes are the packages whose outputs must be
// bit-identical run to run (the paper's Table 2 / Fig 8 kernels). Paths
// are matched by prefix, so subpackages inherit the contract.
var deterministicPkgPrefixes = []string{
	"vm1place/internal/core",
	"vm1place/internal/milp",
	"vm1place/internal/lp",
	"vm1place/internal/route",
	"vm1place/internal/place",
	"vm1place/internal/wmilp",
	// The congestion proxy feeds guided family selection, whose plan must
	// be a pure function of the placement (see internal/core/guided.go).
	"vm1place/internal/proxy",
	// Geometry objectives emit the MILP rows whose ordering steers simplex
	// pivoting; any map-ordered iteration here breaks the golden flows.
	"vm1place/internal/objective",
}

func isDeterministicPkg(path string) bool {
	for _, p := range deterministicPkgPrefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// orderedSinkPrefixes match callee names whose call order is observable:
// row/term builders, growable buffers, and stream writers.
var orderedSinkPrefixes = []string{"Add", "Append", "Push", "Write", "Print", "Fprint"}

func runMapOrder(pass *Pass) error {
	if !isDeterministicPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if reason := orderDependentEffect(pass, rng); reason != "" {
				pass.Reportf(rng.Pos(), "range over map has order-dependent effect (%s); iterate sorted keys or tag // order-ok: with the reason", reason)
			}
			return true
		})
	}
	return nil
}

// orderDependentEffect scans the range body and names the first
// order-dependent effect found, or returns "".
func orderDependentEffect(pass *Pass, rng *ast.RangeStmt) string {
	var reason string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch st := n.(type) {
		case *ast.SendStmt:
			reason = "channel send"
			return false
		case *ast.AssignStmt:
			if r := assignEffect(pass, rng, st); r != "" {
				reason = r
				return false
			}
		case *ast.CallExpr:
			if name, ok := orderedSinkCall(pass, st); ok {
				reason = "call to ordered sink " + name
				return false
			}
		}
		return true
	})
	return reason
}

// assignEffect classifies an assignment inside the loop body: an append
// into an outer slice, or a compound float accumulation into an outer
// variable.
func assignEffect(pass *Pass, rng *ast.RangeStmt, st *ast.AssignStmt) string {
	// s = append(s, ...) with s declared outside the loop.
	if st.Tok == token.ASSIGN || st.Tok == token.DEFINE {
		for i, rhs := range st.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass, call) || i >= len(st.Lhs) {
				continue
			}
			if obj := lhsObject(pass, st.Lhs[i]); obj != nil && declaredOutside(obj, rng) {
				return "append to slice " + obj.Name() + " declared outside the loop"
			}
		}
		return ""
	}
	// x += ... (or -=, *=, /=) on an outer float accumulator.
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		obj := lhsObject(pass, st.Lhs[0])
		if obj == nil || !declaredOutside(obj, rng) {
			return ""
		}
		t := pass.TypesInfo.TypeOf(st.Lhs[0])
		if t == nil {
			return ""
		}
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
			return "floating-point accumulation into " + obj.Name()
		}
	}
	return ""
}

// lhsObject resolves the variable behind an assignment target: the
// identifier itself, or the root of a selector/index chain (writing
// through s.field or s[i] still orders the container's contents when the
// container grows per iteration; for plain element writes the effect
// check below stays conservative by only matching appends and compound
// float ops).
func lhsObject(pass *Pass, e ast.Expr) types.Object {
	id := rootIdent(e)
	if id == nil {
		return nil
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if _, ok := obj.(*types.Var); !ok {
		return nil
	}
	return obj
}

// declaredOutside reports whether obj's declaration lies outside the
// range statement's span (including its key/value variables).
func declaredOutside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Pos() || obj.Pos() >= rng.End()
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// orderedSinkCall reports whether call is a method or package function
// whose name carries an ordered-sink prefix.
func orderedSinkCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	case *ast.Ident:
		name = fun.Name
		if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
			return "", false
		}
	default:
		return "", false
	}
	for _, p := range orderedSinkPrefixes {
		if strings.HasPrefix(name, p) {
			return name, true
		}
	}
	return "", false
}
