// Package dataflow is tmlint's whole-program layer: a module-local call
// graph over the loader's typed packages, directive-declared facts
// (//tmlint:secret, //tmlint:vartime, //tmlint:hotpath), and per-function
// facts computed on demand — constant-time summaries for cttime and
// allocation facts for hotalloc.
//
// The Program is built once per driver run (memoized through
// analysis.Shared) and is immutable afterwards, so concurrent per-package
// analyzer passes can read it freely.
package dataflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"

	"tokenmagic/internal/analysis"
)

// Func is one module-local function or method with a body.
type Func struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *analysis.Package
	File *ast.File

	// Calls are the static call sites to other module-local functions, in
	// source order.
	Calls []Call

	// Hotpath marks //tmlint:hotpath functions (hotalloc scope).
	Hotpath bool
	// Vartime marks //tmlint:vartime functions: their execution time may
	// depend on operand values (verification kernels), so cttime
	// reports any secret-derived argument or receiver at their call sites.
	Vartime bool
	// SecretParams holds the zero-based parameter indices declared secret
	// via `//tmlint:secret name...` in the function's doc comment.
	SecretParams map[int]bool
	// SecretResults marks functions whose results are secret, declared via
	// a bare `//tmlint:secret` doc line (e.g. nonce generators).
	SecretResults bool

	ct       *CTSummary
	hotalloc *AllocSummary
}

// Call is one resolved module-local call site.
type Call struct {
	Site   *ast.CallExpr
	Callee *types.Func
}

// Finding is one whole-program diagnostic, attributed to the package that
// owns its position.
type Finding struct {
	Pos     token.Pos
	PkgPath string
	Message string
}

// Program indexes every function of the loaded packages plus the
// directive-declared facts, and lazily computes analyzer summaries.
type Program struct {
	// Funcs maps the type-checker's function objects to their bodies.
	Funcs map[*types.Func]*Func
	// SecretFields holds struct fields declared `//tmlint:secret`.
	SecretFields map[*types.Var]bool

	// ordered lists every Func sorted by position for deterministic
	// fixpoint iteration.
	ordered []*Func

	// Fact computation is lazy and memoized; analyzer passes run
	// concurrently across packages, so each fact family computes under its
	// own Once. Results are immutable afterwards.
	ctOnce       sync.Once
	hotallocOnce sync.Once

	ctFindings []Finding
}

const sharedKey = "dataflow.Program"

// Get returns the run-wide Program, building it on first use via the
// pass's Shared table.
func Get(pass *analysis.Pass) (*Program, error) {
	v, err := pass.Shared.Get(sharedKey, func() (any, error) {
		return Build(pass.AllPackages)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Program), nil
}

// Build constructs the program over the given packages.
func Build(pkgs []*analysis.Package) (*Program, error) {
	p := &Program{
		Funcs:        make(map[*types.Func]*Func),
		SecretFields: make(map[*types.Var]bool),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			p.indexFile(pkg, file)
		}
	}
	// Resolve call graphs after the full index exists so forward and
	// cross-package references land.
	for _, fn := range p.Funcs {
		p.resolveCalls(fn)
	}
	for _, fn := range p.Funcs {
		p.ordered = append(p.ordered, fn)
	}
	sort.Slice(p.ordered, func(i, j int) bool {
		return p.ordered[i].Obj.Pos() < p.ordered[j].Obj.Pos()
	})
	return p, nil
}

// FuncAt returns the module-local function for obj, or nil.
func (p *Program) FuncAt(obj *types.Func) *Func {
	if obj == nil {
		return nil
	}
	return p.Funcs[obj]
}

// FuncsIn returns the functions declared in the package with the given
// import path, sorted by position.
func (p *Program) FuncsIn(pkgPath string) []*Func {
	var out []*Func
	for _, fn := range p.ordered {
		if fn.Pkg.Path == pkgPath {
			out = append(out, fn)
		}
	}
	return out
}

func (p *Program) indexFile(pkg *analysis.Package, file *ast.File) {
	for _, decl := range file.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			obj, _ := pkg.Info.Defs[decl.Name].(*types.Func)
			if obj == nil || decl.Body == nil {
				continue
			}
			fn := &Func{Obj: obj, Decl: decl, Pkg: pkg, File: file}
			p.parseFuncDirectives(fn)
			p.Funcs[obj] = fn
		case *ast.GenDecl:
			p.indexSecretFields(pkg, decl)
		}
	}
}

// indexSecretFields records struct fields carrying //tmlint:secret.
func (p *Program) indexSecretFields(pkg *analysis.Package, decl *ast.GenDecl) {
	ast.Inspect(decl, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			if !hasDirective(field.Doc, "//tmlint:secret") && !hasDirective(field.Comment, "//tmlint:secret") {
				continue
			}
			for _, name := range field.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					p.SecretFields[v] = true
				}
			}
		}
		return true
	})
}

// parseFuncDirectives reads //tmlint:hotpath, //tmlint:vartime and
// //tmlint:secret from the function's doc comment. A bare secret directive
// marks the results secret; named forms mark the listed parameters.
func (p *Program) parseFuncDirectives(fn *Func) {
	if fn.Decl.Doc == nil {
		return
	}
	for _, c := range fn.Decl.Doc.List {
		if strings.HasPrefix(c.Text, "//tmlint:hotpath") {
			fn.Hotpath = true
			continue
		}
		if strings.HasPrefix(c.Text, "//tmlint:vartime") {
			fn.Vartime = true
			continue
		}
		rest, ok := strings.CutPrefix(c.Text, "//tmlint:secret")
		if !ok {
			continue
		}
		names := strings.Fields(rest)
		if len(names) == 0 {
			fn.SecretResults = true
			continue
		}
		if fn.SecretParams == nil {
			fn.SecretParams = make(map[int]bool)
		}
		sig := fn.Obj.Type().(*types.Signature)
		for _, want := range names {
			for i := 0; i < sig.Params().Len(); i++ {
				if sig.Params().At(i).Name() == want {
					fn.SecretParams[i] = true
				}
			}
		}
	}
}

func hasDirective(cg *ast.CommentGroup, prefix string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.HasPrefix(c.Text, prefix) {
			return true
		}
	}
	return false
}

// resolveCalls records fn's call sites whose callee is a module-local
// function with a body, in source order. Nested function literals are
// included: a closure's calls count as the enclosing function's for
// summary purposes.
func (p *Program) resolveCalls(fn *Func) {
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := CalleeOf(fn.Pkg.Info, call); callee != nil {
			if _, local := p.Funcs[callee]; local {
				fn.Calls = append(fn.Calls, Call{Site: call, Callee: callee})
			}
		}
		return true
	})
}

// CalleeOf resolves a call expression to its static callee, or nil for
// indirect calls (function values, interface methods resolve to the
// interface method object, which is not module-local).
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// paramIndex maps argument index i to the callee's parameter index,
// folding variadic tails onto the last parameter; -1 when there is none.
func paramIndex(sig *types.Signature, i int) int {
	n := sig.Params().Len()
	if n == 0 {
		return -1
	}
	if i >= n {
		if sig.Variadic() {
			return n - 1
		}
		return -1
	}
	return i
}

// Name returns a compact human name: "Type.Method" or "funcname".
func (fn *Func) Name() string {
	sig := fn.Obj.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("%s.%s", named.Obj().Name(), fn.Obj.Name())
		}
	}
	return fn.Obj.Name()
}
