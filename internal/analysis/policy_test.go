package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

func TestPolicyLongestPrefixWins(t *testing.T) {
	p := &Policy{Rules: []Rule{
		{Analyzer: "errdrop", Path: "internal/bench", Action: "allow"},
		{Analyzer: "errdrop", Path: "internal/bench/hot", Action: "deny"},
		{Analyzer: "cryptorand", Path: "internal/chain", Action: "deny"},
	}}

	if !p.Allows("errdrop", "internal/bench/print.go") {
		t.Error("allow rule should cover files directly below its path")
	}
	if !p.Denies("errdrop", "internal/bench/hot/loop.go") {
		t.Error("the longer deny prefix should beat the shorter allow")
	}
	if p.Allows("errdrop", "internal/benchmark/print.go") {
		t.Error("prefix matching must respect path component boundaries")
	}
	if p.Allows("hotalloc", "internal/bench/print.go") {
		t.Error("rules must only apply to their named analyzer")
	}
	if !p.Denies("cryptorand", "internal/chain/tokenset.go") {
		t.Error("deny rules should extend scoped analyzers to new paths")
	}
	if p.Denies("cryptorand", "internal/chain") != true {
		t.Error("a rule path matches itself")
	}
}

func TestPolicyTieResolvesToAllow(t *testing.T) {
	p := &Policy{Rules: []Rule{
		{Analyzer: "*", Path: "internal/sim", Action: "deny"},
		{Analyzer: "determinism", Path: "internal/sim", Action: "allow"},
	}}
	if !p.Allows("determinism", "internal/sim/sim.go") {
		t.Error("equal-length allow and deny should resolve to allow")
	}
	if !p.Denies("errdrop", "internal/sim/sim.go") {
		t.Error("the wildcard deny should still apply to other analyzers")
	}
}

// TestPolicyTieEdgeCases pins down the resolution order when several rules
// match at the same specificity: allow wins regardless of rule order, a
// trailing slash does not change a rule's effective length, and a longer
// deny still beats the allow.
func TestPolicyTieEdgeCases(t *testing.T) {
	denyFirst := &Policy{Rules: []Rule{
		{Analyzer: "determinism", Path: "internal/sim", Action: "deny"},
		{Analyzer: "determinism", Path: "internal/sim", Action: "allow"},
	}}
	allowFirst := &Policy{Rules: []Rule{
		{Analyzer: "determinism", Path: "internal/sim", Action: "allow"},
		{Analyzer: "determinism", Path: "internal/sim", Action: "deny"},
	}}
	for name, p := range map[string]*Policy{"deny-first": denyFirst, "allow-first": allowFirst} {
		if !p.Allows("determinism", "internal/sim/sim.go") {
			t.Errorf("%s: equal-length tie must resolve to allow independent of rule order", name)
		}
	}

	slashed := &Policy{Rules: []Rule{
		{Analyzer: "determinism", Path: "internal/sim/", Action: "allow"},
		{Analyzer: "determinism", Path: "internal/sim", Action: "deny"},
	}}
	if !slashed.Allows("determinism", "internal/sim/sim.go") {
		t.Error("a trailing slash must not demote an allow below the tie")
	}

	escalated := &Policy{Rules: []Rule{
		{Analyzer: "determinism", Path: "internal/sim", Action: "allow"},
		{Analyzer: "determinism", Path: "internal/sim/hot", Action: "deny"},
	}}
	if !escalated.Denies("determinism", "internal/sim/hot/loop.go") {
		t.Error("a strictly longer deny must beat the shorter allow")
	}
	if !escalated.Allows("determinism", "internal/sim/cold/loop.go") {
		t.Error("the shorter allow must still cover paths outside the deny subtree")
	}
}

func TestLoadPolicy(t *testing.T) {
	dir := t.TempDir()

	if p, err := LoadPolicy(filepath.Join(dir, "absent.json")); err != nil || len(p.Rules) != 0 {
		t.Errorf("missing file should load as the empty policy, got %v, %v", p, err)
	}

	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"rules":[{"analyzer":"errdrop","path":"a/b","action":"allow","reason":"r"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPolicy(good)
	if err != nil || len(p.Rules) != 1 {
		t.Fatalf("good policy failed to load: %v, %v", p, err)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"rules":[{"analyzer":"errdrop","path":"a","action":"maybe"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPolicy(bad); err == nil {
		t.Error("invalid action should be rejected at load time")
	}
}
