package bench

import (
	"fmt"
	"math/rand"

	"tokenmagic/internal/adversary"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/selector"
	"tokenmagic/internal/tokenmagic"
	"tokenmagic/internal/workload"
)

// TraceabilityPoint is one measured strategy in the traceability
// experiment. The exact (matching-based) adversary provides the headline
// numbers; the greedy Theorem-4.1 cascade runs alongside it as a soundness
// check — the cascade may trace fewer rings but never more.
type TraceabilityPoint struct {
	Strategy         string
	RingsCommitted   int
	Traced           int
	HTRevealed       int
	AvgAnonymity     float64
	MinAnonymity     int
	ProvablyConsumed int
	// CascadeTraced and CascadeConsumed are the greedy cascade's weaker
	// counterparts of Traced and ProvablyConsumed (⊆ the exact closure).
	CascadeTraced   int
	CascadeConsumed int
}

// Traceability is the motivation experiment behind the whole paper: drive
// the same consumption workload (a sequence of spends over one batch) with
// (a) the Monero-style SM sampler with ring size ζ, and (b) TokenMagic with
// TM_P, then run the exact chain-reaction adversary over each resulting
// ledger. The SM sampler's small overlapping rings become traceable as
// consumption progresses; TokenMagic's configuration-compliant rings do
// not.
func Traceability(spends, zeta int, seed int64) ([]TraceabilityPoint, error) {
	var out []TraceabilityPoint

	// Shared workload shape: a fresh synthetic batch per strategy (same
	// seed → identical tokens and HTs), spending the first `spends` tokens.
	// The pool is sized so the spend sequence consumes most of it — the
	// regime in which real Monero outputs became traceable (Möser et al.):
	// as the unspent fraction shrinks, small random rings increasingly
	// contain only already-spent decoys.
	poolSize := spends + spends/4 + zeta
	makeDataset := func() (*workload.Dataset, error) {
		p := workload.SyntheticParams{
			NumSupers:    0, // virgin batch: all tokens fresh
			SuperSizeMin: 1,
			SuperSizeMax: 1,
			NumFresh:     poolSize,
			Sigma:        6,
			Seed:         seed,
		}
		return workload.Synthetic(p)
	}

	// Strategy (a): Monero-style SM, with the historical wart that made the
	// chain-reaction attack devastating in practice (Möser et al.): a
	// fraction of users minimise fees with zero-mixin (ring size 1)
	// spends, and those exposed tokens poison every ring that later picks
	// them as decoys.
	{
		d, err := makeDataset()
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		half := len(d.Universe) / 2
		params := selector.MoneroParams{
			Zeta:   zeta,
			Recent: d.Universe[half:].Clone(),
			Older:  d.Universe[:half].Clone(),
		}
		committed := 0
		for i := 0; i < spends && i < len(d.Universe); i++ {
			target := d.Universe[i]
			var ring chain.TokenSet
			if i%5 < 2 { // 40% fee minimisers: zero mixins
				ring = chain.NewTokenSet(target)
			} else {
				res, err := selector.MoneroSample(target, params, rng)
				if err != nil {
					continue
				}
				ring = res.Tokens
			}
			if _, err := d.Ledger.AppendRS(ring, 1, 1); err != nil {
				return nil, err
			}
			committed++
		}
		pt, err := summarisePoint("Monero_SM", committed, d)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}

	// Strategy (b): TokenMagic TM_P.
	{
		d, err := makeDataset()
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		cfg := tokenmagic.Config{
			Lambda:    d.Ledger.NumTokens(),
			Eta:       0.1,
			Headroom:  true,
			Algorithm: tokenmagic.Progressive,
		}
		f, err := tokenmagic.New(d.Ledger, cfg, rng)
		if err != nil {
			return nil, err
		}
		req := diversity.Requirement{C: 1, L: 3}
		committed := 0
		for i := 0; i < spends && i < len(d.Universe); i++ {
			if _, _, err := f.GenerateAndCommit(d.Universe[i], req); err != nil {
				continue
			}
			committed++
		}
		pt, err := summarisePoint("TokenMagic_TM_P", committed, d)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// summarisePoint runs BOTH adversaries over the committed ledger: the exact
// matching-based closure for the headline numbers, and the greedy
// Theorem-4.1 cascade as a differential check. These instances are small
// enough for the exact analysis, so a cascade that eliminates a token the
// exact analysis keeps — or proves consumption the exact closure does not —
// is a soundness bug, reported as an error rather than folded into the
// figures.
func summarisePoint(name string, committed int, d *workload.Dataset) (TraceabilityPoint, error) {
	rings := d.Ledger.Rings()
	exact := adversary.ChainReaction(rings, nil, d.Origin())
	cascade := adversary.Cascade(rings, nil, d.Origin())
	for i := range rings {
		if !exact.Observations[i].Remaining.SubsetOf(cascade.Observations[i].Remaining) {
			return TraceabilityPoint{}, fmt.Errorf(
				"bench: cascade unsound on %s ring %d: eliminated %v beyond exact %v",
				name, i, cascade.Observations[i].Remaining, exact.Observations[i].Remaining)
		}
	}
	if !cascade.Consumed.SubsetOf(exact.Consumed) {
		return TraceabilityPoint{}, fmt.Errorf(
			"bench: cascade unsound on %s: consumed %v ⊄ exact %v",
			name, cascade.Consumed, exact.Consumed)
	}
	m := adversary.Summarise(exact)
	cm := adversary.Summarise(cascade)
	return TraceabilityPoint{
		Strategy:         name,
		RingsCommitted:   committed,
		Traced:           m.Traced,
		HTRevealed:       m.HTRevealed,
		AvgAnonymity:     m.AvgAnonymity,
		MinAnonymity:     m.MinAnonymity,
		ProvablyConsumed: m.ConsumedTokens,
		CascadeTraced:    cm.Traced,
		CascadeConsumed:  cm.ConsumedTokens,
	}, nil
}
