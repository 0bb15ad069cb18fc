package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlowAnalyzer protects the PR 5 cancellation plumbing: once a
// context enters the pipeline it must flow through every layer, so a
// deadline or Ctrl-C reaches the LP arenas and the router's net commits.
//
// Three rules:
//
//  1. A function that receives a context.Context must not feed
//     context.Background()/context.TODO() to a callee — that severs the
//     chain exactly where it matters.
//  2. A named context parameter must actually be used whenever the body
//     calls anything that accepts a context (an ignored ctx means some
//     callee is being run uncancellable).
//  3. Under internal/, context.Background()/TODO() are banned outright in
//     non-test code: every library entry point that can block takes the
//     caller's context, so there is no context-free wrapper to exempt.
//
// The analyzer has no suppression tag; a fresh context belongs in main,
// tests and examples only.
var CtxFlowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Doc:  "requires received contexts to be propagated and bans fresh Background/TODO contexts in library code",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	internal := isInternalPkg(pass.Pkg.Path())
	// reported tracks Background/TODO call positions already flagged by
	// rule 1 so rule 3 does not double-report them.
	reported := make(map[ast.Node]bool)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctxParam := contextParam(pass, fd)
			if ctxParam == nil {
				continue
			}
			used := false
			callsCtxCallee := 0
			severed := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ctxParam {
					used = true
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if calleeAcceptsContext(pass, call) {
					callsCtxCallee++
					for _, arg := range call.Args {
						if inner, ok := arg.(*ast.CallExpr); ok && isFreshContext(pass, inner) {
							reported[inner] = true
							severed = true
							pass.Reportf(inner.Pos(), "function receives %s but passes a fresh context to this call; thread %s instead", ctxParam.Name(), ctxParam.Name())
						}
					}
				}
				return true
			})
			// The unused-parameter rule stays quiet when a fresh-context
			// diagnostic already explains why ctx never flowed anywhere.
			if !used && !severed && callsCtxCallee > 0 {
				pass.Reportf(fd.Name.Pos(), "context parameter %s is never used, yet the body calls context-accepting functions; propagate it", ctxParam.Name())
			}
		}

		if !internal {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || reported[call] || !isFreshContext(pass, call) {
				return true
			}
			pass.Reportf(call.Pos(), "context.Background/TODO in internal/ library code: accept and thread the caller's ctx")
			return true
		})
	}
	return nil
}

// contextParam returns the function's first named, non-blank parameter of
// type context.Context, or nil.
func contextParam(pass *Pass, fd *ast.FuncDecl) *types.Var {
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
			if ok && isContextType(obj.Type()) {
				return obj
			}
		}
	}
	return nil
}

// calleeAcceptsContext reports whether the call's static callee signature
// has a context.Context parameter.
func calleeAcceptsContext(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypesInfo.TypeOf(call.Fun)
	sig, ok := t.(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isFreshContext reports whether call is context.Background() or
// context.TODO().
func isFreshContext(pass *Pass, call *ast.CallExpr) bool {
	return isPkgFunc(pass.TypesInfo, call, "context", "Background") ||
		isPkgFunc(pass.TypesInfo, call, "context", "TODO")
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
