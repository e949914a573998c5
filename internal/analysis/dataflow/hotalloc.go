package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"tokenmagic/internal/analysis"
)

// Alloc is one allocating construct found in a function body.
type Alloc struct {
	Pos  token.Pos
	What string
}

// AllocSummary is the hotalloc fact for one function: its allocating
// constructs, with //lint:ignore hotalloc lines already filtered out so a
// suppressed allocation in a callee does not resurface as a cross-function
// finding at the caller.
type AllocSummary struct {
	Allocs []Alloc
}

// AllocsOf returns the (ignore-filtered) allocation facts for a module
// function. Facts for the whole program are computed on first use.
//
// The construct set is deliberately syntactic and local — escape analysis
// is the compiler's job; hotalloc flags the shapes that reliably allocate
// on hot paths: map/slice literals, make/new, append whose result lands
// somewhere other than its source, closures capturing outer variables, and
// concrete-to-interface conversions at call sites. Value struct literals
// and same-target append (x = append(x, …), the amortized-growth idiom the
// diversity engine relies on) are allowed.
func (p *Program) AllocsOf(fn *Func) []Alloc {
	p.hotallocOnce.Do(func() {
		for _, f := range p.ordered {
			f.hotalloc = &AllocSummary{Allocs: collectAllocs(f)}
		}
	})
	if fn.hotalloc == nil {
		return nil
	}
	return fn.hotalloc.Allocs
}

func collectAllocs(fn *Func) []Alloc {
	info := fn.Pkg.Info
	ignored := analysis.IgnoreLines(fn.Pkg.Fset, fn.File, "hotalloc")
	var out []Alloc
	add := func(pos token.Pos, what string) {
		if ignored[fn.Pkg.Fset.Position(pos).Line] {
			return
		}
		out = append(out, Alloc{Pos: pos, What: what})
	}

	// First pass: same-target appends (x = append(x, …)) are sanctioned.
	sanctioned := make(map[*ast.CallExpr]bool)
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinNamed(info, call, "append") || len(call.Args) == 0 {
				continue
			}
			if types.ExprString(as.Lhs[i]) == types.ExprString(call.Args[0]) {
				sanctioned[call] = true
			}
		}
		return true
	})

	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				add(n.Pos(), "map literal")
			case *types.Slice:
				add(n.Pos(), "slice literal")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					add(n.Pos(), "escaping composite literal (&T{})")
				}
			}
		case *ast.FuncLit:
			if capturesOuter(info, fn, n) {
				add(n.Pos(), "closure capturing outer variables")
			}
		case *ast.CallExpr:
			switch {
			case isBuiltinNamed(info, n, "make"):
				add(n.Pos(), "make")
			case isBuiltinNamed(info, n, "new"):
				add(n.Pos(), "new")
			case isBuiltinNamed(info, n, "append"):
				if !sanctioned[n] {
					add(n.Pos(), "append result escapes its source")
				}
			default:
				checkInterfaceArgs(info, n, add)
			}
		}
		return true
	})
	return out
}

func isBuiltinNamed(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// capturesOuter reports whether the literal references variables declared
// in the enclosing function (those captures force a heap-allocated
// closure; a literal using only its own locals and globals is static).
func capturesOuter(info *types.Info, fn *Func, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || isPackageLevel(v) {
			return true
		}
		// Declared inside the enclosing function but outside the literal.
		if v.Pos() >= fn.Decl.Pos() && v.Pos() < fn.Decl.End() &&
			(v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			captured = true
			return false
		}
		return true
	})
	return captured
}

// checkInterfaceArgs flags concrete values passed to interface-typed
// parameters (boxing allocates once the value leaves the inlining
// horizon). Conversions of typed nil and of values already of interface
// type are free and not flagged.
func checkInterfaceArgs(info *types.Info, call *ast.CallExpr, add func(token.Pos, string)) {
	// Explicit conversion to an interface type: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if atv, ok := info.Types[call.Args[0]]; ok && atv.Type != nil && !types.IsInterface(atv.Type) && !isUntypedNil(atv.Type) {
				add(call.Args[0].Pos(), "interface conversion")
			}
		}
		return
	}
	callee := CalleeOf(info, call)
	if callee == nil {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pi := paramIndex(sig, i)
		if pi < 0 {
			continue
		}
		pt := sig.Params().At(pi).Type()
		if sig.Variadic() && pi == sig.Params().Len()-1 {
			if sl, ok := pt.(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if !types.IsInterface(pt) {
			continue
		}
		atv, ok := info.Types[arg]
		if !ok || atv.Type == nil || types.IsInterface(atv.Type) || isUntypedNil(atv.Type) {
			continue
		}
		add(arg.Pos(), "interface conversion (argument boxed)")
	}
}

func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func isUntypedNil(t types.Type) bool {
	basic, ok := t.(*types.Basic)
	return ok && basic.Kind() == types.UntypedNil
}
