package analysis_test

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tokenmagic/internal/analysis"
	"tokenmagic/internal/analysis/analyzers"
)

// sharedLoader caches stdlib type-checking across the golden cases; fixture
// packages are distinguished by the import path they are loaded under.
var sharedLoader *analysis.Loader

func loader(t *testing.T) *analysis.Loader {
	t.Helper()
	if sharedLoader == nil {
		root, err := filepath.Abs("../..")
		if err != nil {
			t.Fatal(err)
		}
		l, err := analysis.NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

// wantRe extracts the expectation regexp of a `// want "..."` comment.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

type want struct {
	file string // base name
	line int
	re   *regexp.Regexp
	hits int
}

// parseWants collects the want expectations of every fixture file in dir.
func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), line, m[1], err)
			}
			out = append(out, &want{file: e.Name(), line: line, re: re})
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return out
}

// runFixture loads the fixture directory under the chosen import path and
// runs one analyzer over it (no policy, suppression active).
func runFixture(t *testing.T, dir, importPath, analyzer string) []analysis.Diagnostic {
	t.Helper()
	l := loader(t)
	var a *analysis.Analyzer
	for _, cand := range analyzers.All() {
		if cand.Name == analyzer {
			a = cand
		}
	}
	if a == nil {
		t.Fatalf("unknown analyzer %q", analyzer)
	}
	pkg, err := l.LoadDirAs(dir, importPath)
	if err != nil {
		t.Fatalf("load %s as %s: %v", dir, importPath, err)
	}
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Package{pkg}, []*analysis.Analyzer{a}, nil, l.RelPath)
	if err != nil {
		t.Fatalf("run %s on %s: %v", analyzer, importPath, err)
	}
	return diags
}

// TestGolden matches each fixture's diagnostics 1:1 against its `// want`
// comments: every want must be hit on its own line, and every diagnostic
// must be wanted. Scoped analyzers get an extra out-of-scope load where the
// same dirty fixture must produce nothing.
func TestGolden(t *testing.T) {
	cases := []struct {
		name       string
		dir        string
		importPath string
		analyzer   string
		outOfScope bool // expect zero findings regardless of wants
	}{
		{name: "cryptorand", dir: "cryptorand",
			importPath: "tokenmagic/internal/ringsig/goldenfix", analyzer: "cryptorand"},
		{name: "cryptorand_out_of_scope", dir: "cryptorand",
			importPath: "tokenmagic/internal/chain/goldenfix", analyzer: "cryptorand", outOfScope: true},
		{name: "determinism", dir: "determinism",
			importPath: "tokenmagic/internal/sim/goldenfix", analyzer: "determinism"},
		{name: "determinism_out_of_scope", dir: "determinism",
			importPath: "tokenmagic/internal/node/goldenfix", analyzer: "determinism", outOfScope: true},
		{name: "errdrop", dir: "errdrop",
			importPath: "tokenmagic/internal/analysis/testdata/errdrop", analyzer: "errdrop"},
		{name: "suppress", dir: "suppress",
			importPath: "tokenmagic/internal/tokenmagic/goldenfix", analyzer: "cryptorand"},
		{name: "hotalloc", dir: "hotalloc",
			importPath: "tokenmagic/internal/diversity/hotallocfix", analyzer: "hotalloc"},
		{name: "cttime", dir: "cttime",
			importPath: "tokenmagic/internal/ringsig/cttimefix", analyzer: "cttime"},
		{name: "cttime_out_of_scope", dir: "cttime",
			importPath: "tokenmagic/internal/chain/cttimefix", analyzer: "cttime", outOfScope: true},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.dir)
			diags := runFixture(t, dir, tc.importPath, tc.analyzer)

			if tc.outOfScope {
				for _, d := range diags {
					t.Errorf("out-of-scope load produced a finding: %s", d)
				}
				return
			}

			wants := parseWants(t, dir)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want comments", dir)
			}
			for _, d := range diags {
				base := filepath.Base(d.Position.Filename)
				matched := false
				for _, w := range wants {
					if w.file == base && w.line == d.Position.Line && w.re.MatchString(d.Message) {
						w.hits++
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if w.hits == 0 {
					t.Errorf("%s:%d: no finding matching %q", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestMalformedIgnoreDirective checks that a //lint:ignore without a reason
// is itself reported (as analyzer "tmlint") and suppresses nothing. The
// directive line cannot carry a want comment, so this fixture is asserted on
// directly.
func TestMalformedIgnoreDirective(t *testing.T) {
	diags := runFixture(t, filepath.Join("testdata", "malformed"),
		"tokenmagic/internal/ringsig/malformedfix", "cryptorand")
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (malformed directive + unsuppressed finding): %v", len(diags), diags)
	}
	if diags[0].Analyzer != "tmlint" || !strings.Contains(diags[0].Message, "malformed //lint:ignore") {
		t.Errorf("first diagnostic should report the malformed directive, got %s", diags[0])
	}
	if diags[1].Analyzer != "cryptorand" {
		t.Errorf("malformed directive must not suppress the finding below it, got %s", diags[1])
	}
}
