package tokenmagic

// Property-based tests over random seeded ledgers and requirements. Three
// guarantees of the framework are checked on arbitrary instances rather
// than hand-built examples:
//
//  1. every generated ring satisfies its recursive (c, ℓ)-diversity
//     requirement (with headroom, Theorem 6.4's sufficient condition);
//  2. a chain grown through GenerateAndCommit resists the adversary's
//     chain-reaction analysis — no ring is traced, no HT revealed — the
//     operational form of the non-eliminated constraint;
//  3. the module-memoised sweep returns the per-token oracle's candidates
//     and pick for the same seed, at every StopAfter setting and algorithm.
//
// Everything is driven by per-trial *rand.Rand streams with fixed seeds, so
// a failure reproduces by trial number.

import (
	"fmt"
	"math/rand"
	"testing"

	"tokenmagic/internal/adversary"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/dtrs"
)

// propLedger builds a random single-block ledger: 4–13 transactions with
// 1–3 outputs each, so batches have mixed HT multiplicities.
func propLedger(tb testing.TB, rng *rand.Rand) *chain.Ledger {
	tb.Helper()
	l := chain.NewLedger()
	b := l.BeginBlock()
	nTx := 4 + rng.Intn(10)
	for i := 0; i < nTx; i++ {
		if _, err := l.AddTx(b, 1+rng.Intn(3)); err != nil {
			tb.Fatal(err)
		}
	}
	return l
}

// propReq draws a requirement from the range the paper's experiments use:
// c ∈ {0.5, 1, 1.5, 2}, ℓ ∈ {2, 3}.
func propReq(rng *rand.Rand) diversity.Requirement {
	return diversity.Requirement{
		C: 0.5 + 0.5*float64(rng.Intn(4)),
		L: 2 + rng.Intn(2),
	}
}

var propAlgorithms = []Algorithm{Progressive, Game, Smallest, RandomPick}

// Property 1: whatever the instance, an accepted GenerateRS result contains
// its target and satisfies both the declared diversity requirement and the
// closed-form DTRS condition.
func TestPropGeneratedRingsSatisfyDiversity(t *testing.T) {
	const trials = 30
	generated := 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		l := propLedger(t, rng)
		req := propReq(rng)
		cfg := Config{
			Lambda:    l.NumTokens(),
			Headroom:  true,
			Algorithm: propAlgorithms[rng.Intn(len(propAlgorithms))],
			Randomize: rng.Intn(2) == 0,
		}
		f, err := New(l, cfg, rand.New(rand.NewSource(int64(trial))))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		target := chain.TokenID(rng.Intn(l.NumTokens()))
		res, err := f.GenerateRS(target, req)
		if err != nil {
			continue // infeasible instance: nothing to assert
		}
		generated++
		if !res.Tokens.Contains(target) {
			t.Fatalf("trial %d (%v): ring %v misses target %d", trial, cfg.Algorithm, res.Tokens, target)
		}
		origin := l.OriginFunc()
		if !diversity.SatisfiesTokens(res.Tokens, origin, req) {
			t.Fatalf("trial %d (%v): ring %v fails %v", trial, cfg.Algorithm, res.Tokens, req)
		}
		if !diversity.SatisfiesTokens(res.Tokens, origin, req.WithHeadroom()) {
			t.Fatalf("trial %d (%v): headroom solve returned ring failing %v", trial, cfg.Algorithm, req.WithHeadroom())
		}
		if !dtrs.AllSatisfyClosedForm(res.Tokens, 1, origin, req) {
			t.Fatalf("trial %d (%v): a DTRS of %v fails %v", trial, cfg.Algorithm, res.Tokens, req)
		}
	}
	if generated < trials/3 {
		t.Fatalf("property vacuous: only %d/%d trials produced a ring", generated, trials)
	}
}

// Property 2: a chain grown through the full generate→verify→commit path
// resists chain-reaction analysis. Every declared ℓ is ≥ 2, so no committed
// ring may be traced to a single token, no HT may be revealed, and at most
// one token per ring may be proven consumed.
func TestPropCommittedChainResistsChainReaction(t *testing.T) {
	const trials = 12
	committedTotal := 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		l := propLedger(t, rng)
		req := propReq(rng)
		cfg := Config{
			Lambda:    l.NumTokens(),
			Eta:       0.1,
			Headroom:  true,
			Algorithm: Progressive,
			Randomize: true,
		}
		f, err := New(l, cfg, rand.New(rand.NewSource(int64(trial))))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		spent := map[chain.TokenID]bool{}
		attempts := 2 + rng.Intn(4)
		for a := 0; a < attempts; a++ {
			target := chain.TokenID(rng.Intn(l.NumTokens()))
			if spent[target] {
				continue
			}
			if _, _, err := f.GenerateAndCommit(target, req); err == nil {
				spent[target] = true
				committedTotal++
			}
		}
		origin := l.OriginFunc()
		analysis := adversary.ChainReaction(l.Rings(), nil, origin)
		if len(analysis.Consumed) > len(l.Rings()) {
			t.Fatalf("trial %d: %d tokens proven consumed by %d rings", trial, len(analysis.Consumed), len(l.Rings()))
		}
		for _, o := range analysis.Observations {
			if o.Traced {
				t.Fatalf("trial %d: ring %v traced to a single token", trial, o.Ring)
			}
			if o.HTKnown {
				t.Fatalf("trial %d: ring %v leaks its historical transaction", trial, o.Ring)
			}
			if len(o.Remaining) < req.L {
				t.Fatalf("trial %d: ring %v anonymity set %d < ℓ=%d", trial, o.Ring, len(o.Remaining), req.L)
			}
		}
	}
	if committedTotal == 0 {
		t.Fatal("property vacuous: no trial committed a ring")
	}
}

// Property 3: the module memo is an implementation detail — for any seed,
// instance, algorithm and StopAfter budget, the sweep returns the per-token
// oracle's candidates and GenerateRSSeeded its pick (or the same failure).
func TestPropSweepMatchesOracle(t *testing.T) {
	const trials = 15
	matchedRings := 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(3000 + trial)))
		l := propLedger(t, rng)
		req := propReq(rng)
		algo := propAlgorithms[rng.Intn(len(propAlgorithms))]
		stopAfter := rng.Intn(3) // 0 = full Algorithm 1
		target := chain.TokenID(rng.Intn(l.NumTokens()))
		seed := rng.Int63()

		f, err := New(l, Config{
			Lambda:    l.NumTokens(),
			Headroom:  true,
			Algorithm: algo,
			Randomize: true,
			StopAfter: stopAfter,
		}, rand.New(rand.NewSource(int64(trial))))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, want, _, _, ok := sweepPair(t, f, target, req, seed)
		if !ok {
			t.Fatalf("trial %d: target %d has no batch", trial, target)
		}
		assertSameSweep(t, fmt.Sprintf("trial %d (%v, stop=%d)", trial, algo, stopAfter), f, target, req, seed, got, want)
		if len(want) > 0 {
			matchedRings++
		}
	}
	if matchedRings == 0 {
		t.Fatal("property vacuous: no trial generated a ring")
	}
}
