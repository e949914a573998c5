package analysis

import (
	"go/parser"
	"go/token"
	"testing"
)

// parseFixture parses an in-memory file with comments for directive tests.
func parseFixture(t *testing.T, src string) (*token.FileSet, *ignoreFixture) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var malformed []Diagnostic
	dirs := parseIgnores(fset, f, func(d Diagnostic) { malformed = append(malformed, d) })
	return fset, &ignoreFixture{file: src, dirs: dirs, malformed: malformed}
}

type ignoreFixture struct {
	file      string
	dirs      []ignoreDirective
	malformed []Diagnostic
}

func (fx *ignoreFixture) suppresses(analyzer string, line int) bool {
	for _, d := range fx.dirs {
		if d.matches(analyzer, line) {
			return true
		}
	}
	return false
}

// TestIgnoreMultipleAnalyzersOneLine: a single directive may name several
// analyzers, comma-separated with no spaces; it suppresses each of them on
// its own line and the line below, and nothing else.
func TestIgnoreMultipleAnalyzersOneLine(t *testing.T) {
	src := `package p

//lint:ignore determinism,errdrop,hotalloc reviewed: fixture exercises the scratch pattern
var x = 1

var y = 2
`
	_, fx := parseFixture(t, src)
	if len(fx.malformed) != 0 {
		t.Fatalf("directive reported as malformed: %v", fx.malformed)
	}
	if len(fx.dirs) != 1 {
		t.Fatalf("got %d directives, want 1", len(fx.dirs))
	}
	for _, analyzer := range []string{"determinism", "errdrop", "hotalloc"} {
		if !fx.suppresses(analyzer, 3) {
			t.Errorf("%s not suppressed on the directive's own line", analyzer)
		}
		if !fx.suppresses(analyzer, 4) {
			t.Errorf("%s not suppressed on the line below the directive", analyzer)
		}
		if fx.suppresses(analyzer, 6) {
			t.Errorf("%s suppressed two lines below the directive", analyzer)
		}
	}
	if fx.suppresses("cryptorand", 4) {
		t.Error("an analyzer not named in the list must not be suppressed")
	}
}

// TestIgnoreListEdgeCases: the analyzer list tolerates a wildcard entry
// mixed with names, and a trailing comma yields an empty entry that matches
// nothing (rather than matching everything).
func TestIgnoreListEdgeCases(t *testing.T) {
	src := `package p

//lint:ignore *,errdrop the wildcard already covers everything
var x = 1

//lint:ignore cttime, trailing comma leaves an empty entry
var y = 2
`
	_, fx := parseFixture(t, src)
	if len(fx.dirs) != 2 {
		t.Fatalf("got %d directives, want 2", len(fx.dirs))
	}
	if !fx.suppresses("anything", 4) {
		t.Error("wildcard entry must suppress every analyzer")
	}
	if !fx.suppresses("cttime", 7) {
		t.Error("named entry before the trailing comma must still work")
	}
	if fx.suppresses("errdrop", 7) {
		t.Error("the empty entry from a trailing comma must not match other analyzers")
	}
}

// TestIgnoreLinesMultiAnalyzer: the cross-function suppression view exposes
// the same multi-analyzer semantics to whole-program fact collection.
func TestIgnoreLinesMultiAnalyzer(t *testing.T) {
	src := `package p

//lint:ignore hotalloc,errdrop scratch warm-up, amortized
var x = 1
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, analyzer := range []string{"hotalloc", "errdrop"} {
		lines := IgnoreLines(fset, f, analyzer)
		if !lines[3] || !lines[4] {
			t.Errorf("IgnoreLines(%s) = %v, want lines 3 and 4", analyzer, lines)
		}
	}
	if lines := IgnoreLines(fset, f, "cttime"); len(lines) != 0 {
		t.Errorf("IgnoreLines for an unnamed analyzer = %v, want empty", lines)
	}
}
