// Package analyzers holds tmlint's project-specific checks. Each analyzer
// machine-checks one invariant the paper's guarantees rest on — signer
// randomness quality, error handling in the serving layer, seed-replayable
// solvers and benchmarks, allocation-free diversity probes, and
// constant-time handling of ring-signature secrets.
package analyzers

import (
	"go/ast"
	"go/types"

	"tokenmagic/internal/analysis"
)

// All returns every analyzer in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Cryptorand,
		Errdrop,
		Determinism,
		Hotalloc,
		Cttime,
	}
}

// calleeFunc resolves the *types.Func a call invokes, or nil (builtins,
// conversions, calls through function-typed variables).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// pkgFunc reports whether fn is the package-level function pkgPath.name
// (receiver-less).
func pkgFunc(fn *types.Func, pkgPath string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

var errorType = types.Universe.Lookup("error").Type()

// returnsError reports whether any result of the call carries an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errorType) {
				return true
			}
		}
		return false
	default:
		return t != nil && types.Identical(t, errorType)
	}
}
