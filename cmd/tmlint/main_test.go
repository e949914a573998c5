package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func regexpMustCompile(t *testing.T, s string) *regexp.Regexp {
	t.Helper()
	re, err := regexp.Compile(s)
	if err != nil {
		t.Fatalf("problem matcher regexp %q does not compile: %v", s, err)
	}
	return re
}

// fixture resolves a golden fixture directory relative to this package.
func fixture(name string) string {
	return filepath.Join("..", "..", "internal", "analysis", "testdata", name)
}

// TestRunExitCodes drives the CLI entry point over the golden fixtures: the
// unscoped analyzers fire on their positive fixtures under the natural
// testdata import path, so each directory must exit 1.
func TestRunExitCodes(t *testing.T) {
	for _, name := range []string{"errdrop", "hotalloc"} {
		if got := run([]string{fixture(name)}, io.Discard, io.Discard); got != 1 {
			t.Errorf("tmlint on the %s positive fixture: exit %d, want 1", name, got)
		}
	}
	if got := run([]string{filepath.Join("..", "..", "internal", "obs")}, io.Discard, io.Discard); got != 0 {
		t.Errorf("tmlint on a clean package: exit %d, want 0", got)
	}
	if got := run([]string{"-json"}, io.Discard, io.Discard); got != 2 {
		t.Errorf("tmlint with an unknown flag: exit %d, want 2", got)
	}
}

// TestListNames pins the analyzer catalogue: -list prints exactly the five
// analyzers, in reporting order.
func TestListNames(t *testing.T) {
	var stdout bytes.Buffer
	if got := run([]string{"-list"}, &stdout, io.Discard); got != 0 {
		t.Fatalf("tmlint -list: exit %d, want 0", got)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if !strings.HasPrefix(line, " ") {
			names = append(names, strings.Fields(line)[0])
		}
	}
	want := []string{"cryptorand", "errdrop", "determinism", "hotalloc", "cttime"}
	if !slices.Equal(names, want) {
		t.Errorf("tmlint -list names = %v, want %v", names, want)
	}
}

// TestRunPolicyDeny exercises the deny action end to end: the scoped
// cryptorand, determinism and cttime fixtures lie outside their analyzers'
// scopes under the natural testdata paths, and a deny rule drags them back
// in.
func TestRunPolicyDeny(t *testing.T) {
	pol := filepath.Join(t.TempDir(), "policy.json")
	rules := `{"rules":[
		{"analyzer":"cryptorand","path":"internal/analysis/testdata/cryptorand","action":"deny","reason":"exercise deny"},
		{"analyzer":"determinism","path":"internal/analysis/testdata/determinism","action":"deny","reason":"exercise deny"},
		{"analyzer":"cttime","path":"internal/analysis/testdata/cttime","action":"deny","reason":"exercise deny"}]}`
	if err := os.WriteFile(pol, []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"cryptorand", "determinism", "cttime"} {
		if got := run([]string{fixture(name)}, io.Discard, io.Discard); got != 0 {
			t.Errorf("without the deny rule the %s fixture is out of scope: exit %d, want 0", name, got)
		}
		if got := run([]string{"-policy", pol, fixture(name)}, io.Discard, io.Discard); got != 1 {
			t.Errorf("the deny rule should pull the %s fixture into scope: exit %d, want 1", name, got)
		}
	}
}

// TestProblemMatcherShape checks the text output line format against the
// regexp registered in the GitHub Actions problem matcher, so the two cannot
// drift apart silently.
func TestProblemMatcherShape(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", ".github", "tmlint-problem-matcher.json"))
	if err != nil {
		t.Fatal(err)
	}
	var matcher struct {
		ProblemMatcher []struct {
			Owner   string `json:"owner"`
			Pattern []struct {
				Regexp string `json:"regexp"`
			} `json:"pattern"`
		} `json:"problemMatcher"`
	}
	if err := json.Unmarshal(data, &matcher); err != nil {
		t.Fatalf("bad problem matcher JSON: %v", err)
	}
	if len(matcher.ProblemMatcher) == 0 || len(matcher.ProblemMatcher[0].Pattern) == 0 {
		t.Fatal("problem matcher has no pattern")
	}

	re := regexpMustCompile(t, matcher.ProblemMatcher[0].Pattern[0].Regexp)

	var stdout bytes.Buffer
	if got := run([]string{fixture("errdrop")}, &stdout, io.Discard); got != 1 {
		t.Fatalf("errdrop fixture: exit %d, want 1", got)
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if !re.MatchString(line) {
			t.Errorf("output line does not match the problem matcher regexp:\n  line:   %s\n  regexp: %s", line, re)
		}
	}

	// cttime messages (multi-clause, "via call to …") must stay matchable
	// too; a deny rule pulls the fixture into the scoped analyzer's range.
	pol := filepath.Join(t.TempDir(), "policy.json")
	rule := `{"rules":[{"analyzer":"cttime","path":"internal/analysis/testdata/cttime","action":"deny","reason":"exercise matcher"}]}`
	if err := os.WriteFile(pol, []byte(rule), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if got := run([]string{"-policy", pol, fixture("cttime")}, &stdout, io.Discard); got != 1 {
		t.Fatalf("cttime fixture: exit %d, want 1", got)
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if !re.MatchString(line) {
			t.Errorf("cttime line does not match the problem matcher regexp:\n  line:   %s\n  regexp: %s", line, re)
		}
	}
}
