// Package analysis is tmlint's stdlib-only static-analysis framework: a
// package loader / type-checker built on go/parser + go/types (no
// golang.org/x/tools dependency), an Analyzer interface with positioned
// diagnostics, a per-path allow/deny policy, and //lint:ignore suppression.
//
// The framework exists because some of the repository's correctness
// properties — constant-time handling of ring-signature secrets, signer
// randomness, allocation-free diversity probes, seed-replayable solvers —
// are exactly the properties that silent drift destroys without failing a
// test. Each analyzer machine-checks one such invariant on every commit; the
// cmd/tmlint binary wires them into CI.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// Analyzer is one named check. Run is invoked once per loaded package that
// the analyzer's scope (plus policy "deny" extensions) selects.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, policy rules and
	// //lint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description shown by `tmlint -list`.
	Doc string
	// Scope restricts the analyzer to packages whose import path equals or
	// is a sub-path of one of these prefixes. Empty means every package.
	// Policy rules with action "deny" extend the scope per file path;
	// rules with action "allow" exempt file paths.
	Scope []string
	// Run inspects one package and reports findings through pass.Report.
	Run func(pass *Pass) error
}

// AppliesTo reports whether the analyzer's static scope selects the package
// import path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, s := range a.Scope {
		if pkgPath == s || (len(pkgPath) > len(s) && pkgPath[:len(s)] == s && pkgPath[len(s)] == '/') {
			return true
		}
	}
	return false
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// AllPackages is every package loaded for this run (the reported set
	// plus its module-local dependency closure), sorted by import path.
	// Whole-program analyzers build their call graph and summaries from it.
	AllPackages []*Package
	// Shared memoizes run-wide facts (e.g. the dataflow program) across
	// analyzers and packages; it is safe for concurrent passes.
	Shared *Shared

	report func(Diagnostic)
}

// Shared is a run-wide, concurrency-safe memoization table. Whole-program
// analyzers use it so the dataflow program over AllPackages is built once
// per run, not once per (analyzer, package) pass.
type Shared struct {
	mu   sync.Mutex
	vals map[string]any
	errs map[string]error
}

// NewShared returns an empty memoization table.
func NewShared() *Shared {
	return &Shared{vals: make(map[string]any), errs: make(map[string]error)}
}

// Get returns the memoized value for key, invoking build on first use.
// Concurrent callers for the same key serialize; build runs at most once
// (errors are memoized too, so a failed build is not retried).
func (s *Shared) Get(key string, build func() (any, error)) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err, ok := s.errs[key]; ok {
		return nil, err
	}
	if v, ok := s.vals[key]; ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		s.errs[key] = err
		return nil, err
	}
	s.vals[key] = v
	return v, nil
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
