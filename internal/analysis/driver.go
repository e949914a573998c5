package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"runtime"
	"strings"
	"sync"
)

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	line      int
	analyzers []string // names, or ["*"]
}

// parseIgnores extracts the //lint:ignore directives of one file, keyed by
// the line the directive ends on. A directive suppresses matching findings
// on its own line (trailing comment) and on the line directly below it
// (comment above the offending statement). Form:
//
//	//lint:ignore analyzer[,analyzer...] reason
//
// The reason is mandatory; a directive without one is itself reported.
func parseIgnores(fset *token.FileSet, f *ast.File, report func(Diagnostic)) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			pos := fset.Position(c.Pos())
			if len(fields) < 2 {
				report(Diagnostic{
					Analyzer: "tmlint",
					Pos:      c.Pos(),
					Position: pos,
					Message:  "malformed //lint:ignore: need an analyzer name and a reason",
				})
				continue
			}
			out = append(out, ignoreDirective{
				line:      fset.Position(c.End()).Line,
				analyzers: strings.Split(fields[0], ","),
			})
		}
	}
	return out
}

func (d ignoreDirective) matches(analyzer string, line int) bool {
	if line != d.line && line != d.line+1 {
		return false
	}
	for _, a := range d.analyzers {
		if a == "*" || a == analyzer {
			return true
		}
	}
	return false
}

// IgnoreLines returns the source lines of f on which findings from the
// named analyzer are suppressed by //lint:ignore directives. Whole-program
// analyzers consult this while collecting facts in OTHER packages, so that
// a suppressed construct (e.g. an allowed allocation inside a hotpath
// callee) does not re-surface as a cross-function finding at the caller.
// Malformed directives are ignored here; the driver reports them.
func IgnoreLines(fset *token.FileSet, f *ast.File, analyzer string) map[int]bool {
	lines := make(map[int]bool)
	for _, d := range parseIgnores(fset, f, func(Diagnostic) {}) {
		for _, a := range d.analyzers {
			if a == "*" || a == analyzer {
				lines[d.line] = true
				lines[d.line+1] = true
				break
			}
		}
	}
	return lines
}

// Run executes the analyzers over pkgs, applying scope, policy and
// //lint:ignore suppression. all is the whole-program package set every
// pass sees (pkgs plus their module-local dependency closure); the dataflow
// program is built over it once per run. Up to GOMAXPROCS packages are
// analyzed concurrently, each running its analyzers sequentially; the
// output is still deterministic because diagnostics are merged per package
// and then sorted by position. The returned error reports analyzer
// failures, not findings.
func Run(pkgs, all []*Package, analyzers []*Analyzer, policy *Policy, relPath func(string) string) ([]Diagnostic, error) {
	if policy == nil {
		policy = &Policy{}
	}
	shared := NewShared()

	perPkg := make([][]Diagnostic, len(pkgs))
	errs := make([]error, len(pkgs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, pkg := range pkgs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, pkg *Package) {
			defer wg.Done()
			defer func() { <-sem }()
			perPkg[i], errs[i] = runPackage(pkg, analyzers, policy, relPath, all, shared)
		}(i, pkg)
	}
	wg.Wait()

	var diags []Diagnostic
	for i := range pkgs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		diags = append(diags, perPkg[i]...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// runPackage runs every applicable analyzer over one package and returns
// the surviving (scope-, policy- and suppression-filtered) diagnostics.
func runPackage(pkg *Package, analyzers []*Analyzer, policy *Policy, relPath func(string) string, all []*Package, shared *Shared) ([]Diagnostic, error) {
	var diags []Diagnostic
	// Ignore directives are analyzer-independent; collect once per file.
	var ignores []ignoreDirective
	for _, f := range pkg.Files {
		ignores = append(ignores, parseIgnores(pkg.Fset, f, func(d Diagnostic) {
			diags = append(diags, d)
		})...)
	}
	for _, a := range analyzers {
		inScope := a.AppliesTo(pkg.Path)
		if !inScope && !anyFileDenied(a, pkg, policy, relPath) {
			continue
		}
		var raw []Diagnostic
		pass := &Pass{
			Analyzer:    a,
			Fset:        pkg.Fset,
			Files:       pkg.Files,
			Pkg:         pkg.Types,
			Info:        pkg.Info,
			AllPackages: all,
			Shared:      shared,
			report:      func(d Diagnostic) { raw = append(raw, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range raw {
			rel := relPath(d.Position.Filename)
			// Out-of-scope packages only report in policy-denied files.
			if !inScope && !policy.Denies(a.Name, rel) {
				continue
			}
			if policy.Allows(a.Name, rel) {
				continue
			}
			if suppressed(ignores, d) {
				continue
			}
			diags = append(diags, d)
		}
	}
	return diags, nil
}

func suppressed(ignores []ignoreDirective, d Diagnostic) bool {
	for _, ig := range ignores {
		if ig.matches(d.Analyzer, d.Position.Line) {
			return true
		}
	}
	return false
}

// anyFileDenied reports whether a policy "deny" rule drags any of the
// package's files into a scoped analyzer's reach.
func anyFileDenied(a *Analyzer, pkg *Package, policy *Policy, relPath func(string) string) bool {
	for _, f := range pkg.Files {
		if policy.Denies(a.Name, relPath(pkg.Fset.Position(f.Pos()).Filename)) {
			return true
		}
	}
	return false
}
