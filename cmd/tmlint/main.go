// Command tmlint is the repository's project-aware static-analysis suite:
// five go/ast + go/types analyzers (cryptorand, errdrop, determinism,
// hotalloc, cttime) that machine-check invariants the paper's anonymity
// guarantees rest on. CI runs `tmlint ./...` as a blocking step; see README
// "Static analysis" for the policy file format and the //lint:ignore
// suppression syntax.
//
// Usage:
//
//	tmlint [-policy file] [-list] [-stats] [packages]
//
// Packages may be "./..." (everything under the module root, the default)
// or individual package directories. Exit status: 0 clean, 1 findings, 2
// usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"tokenmagic/internal/analysis"
	"tokenmagic/internal/analysis/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	policyPath := fs.String("policy", "", "policy file (default: .tmlint.json at the module root)")
	list := fs.Bool("list", false, "list analyzers and exit")
	stats := fs.Bool("stats", false, "print the analyzed package count and run time to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
			if len(a.Scope) > 0 {
				fmt.Fprintf(stdout, "%-12s scope: %v\n", "", a.Scope)
			}
		}
		return 0
	}

	start := time.Now()
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "tmlint:", err)
		return 2
	}

	pp := *policyPath
	if pp == "" {
		pp = filepath.Join(root, ".tmlint.json")
	}
	policy, err := analysis.LoadPolicy(pp)
	if err != nil {
		fmt.Fprintln(stderr, "tmlint:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "tmlint:", err)
		return 2
	}
	var pkgs []*analysis.Package
	seen := make(map[string]bool)
	for _, pat := range patterns {
		var batch []*analysis.Package
		if pat == "./..." || pat == "..." {
			batch, err = loader.LoadAll()
		} else {
			var pkg *analysis.Package
			pkg, err = loader.LoadDir(pat)
			batch = []*analysis.Package{pkg}
		}
		if err != nil {
			fmt.Fprintln(stderr, "tmlint:", err)
			return 2
		}
		for _, p := range batch {
			if !seen[p.Path] {
				seen[p.Path] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	diags, err := analysis.Run(pkgs, loader.Packages(), analyzers.All(), policy, loader.RelPath)
	if err != nil {
		fmt.Fprintln(stderr, "tmlint:", err)
		return 2
	}

	if *stats {
		fmt.Fprintf(stderr, "tmlint: %d package(s) analyzed in %s\n",
			len(pkgs), time.Since(start).Round(time.Millisecond))
	}

	for _, d := range diags {
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n",
			loader.RelPath(d.Position.Filename), d.Position.Line, d.Position.Column,
			d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "tmlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the dir holding
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
