package tokenmagic

import (
	"math/rand"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
)

func samplingLedger(tb testing.TB, nTx int) *chain.Ledger {
	tb.Helper()
	l := chain.NewLedger()
	b := l.BeginBlock()
	for i := 0; i < nTx; i++ {
		if _, err := l.AddTx(b, 2); err != nil {
			tb.Fatal(err)
		}
	}
	return l
}

// Candidate sampling must stay deterministic per seed: the random pick
// consumes the rng in a fixed order.
func TestRandomizedSamplingDeterministic(t *testing.T) {
	run := func() chain.TokenSet {
		l := samplingLedger(t, 12)
		cfg := Config{Lambda: 100, Headroom: true, Algorithm: Progressive, Randomize: true}
		f, err := New(l, cfg, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.GenerateRS(4, diversity.Requirement{C: 1, L: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res.Tokens
	}
	a, b := run(), run()
	if !a.Equal(b) {
		t.Fatalf("sampling nondeterministic: %v vs %v", a, b)
	}
}

// TM_R's solver consumes randomness, so each candidate draws from its own
// derived stream; the sweep must still produce a target-bearing ring.
func TestRandomizedSamplingWithRandomPick(t *testing.T) {
	l := samplingLedger(t, 10)
	cfg := Config{Lambda: 100, Headroom: true, Algorithm: RandomPick, Randomize: true}
	f, err := New(l, cfg, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.GenerateRS(3, diversity.Requirement{C: 1, L: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tokens.Contains(3) {
		t.Fatalf("ring %v missing target", res.Tokens)
	}
}

// A selection must decompose against every commit before it: a committed
// ring becomes a super module the very next solve.
func TestDecompositionCacheInvalidation(t *testing.T) {
	l := samplingLedger(t, 10)
	f, err := New(l, Config{Lambda: 100, Headroom: true, Algorithm: Progressive}, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := diversity.Requirement{C: 1, L: 3}
	first, err := f.GenerateRS(0, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Commit(first.Tokens, req); err != nil {
		t.Fatal(err)
	}
	// Spending a token inside the committed ring must now produce a
	// superset of it (the configuration's superset-or-disjoint rule): the
	// committed ring is the target's mandatory module.
	inner := first.Tokens[1]
	second, err := f.GenerateRS(inner, req)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Tokens.SubsetOf(second.Tokens) {
		t.Fatalf("stale decomposition: new ring %v does not contain committed super %v",
			second.Tokens, first.Tokens)
	}
}

func BenchmarkCandidateSampling(b *testing.B) {
	l := samplingLedger(b, 40)
	cfg := Config{Lambda: 200, Headroom: true, Algorithm: Progressive, Randomize: true}
	f, err := New(l, cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	req := diversity.Requirement{C: 1, L: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.GenerateRS(0, req); err != nil {
			b.Fatal(err)
		}
	}
}
