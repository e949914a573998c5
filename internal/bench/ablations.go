package bench

import (
	"math/rand"
	"time"

	"tokenmagic/internal/adversary"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/dtrs"
	"tokenmagic/internal/rsgraph"
	"tokenmagic/internal/selector"
	"tokenmagic/internal/tokenmagic"
)

// DTRSAblation compares the cost of the exact Algorithm-3 DTRS diversity
// check against the Theorem-6.1 closed form on the same small instances.
// This is ablation A1: it quantifies why the practical configuration exists.
type DTRSAblation struct {
	Instances  int
	ExactTime  time.Duration // total across instances
	ClosedTime time.Duration
	// Agreements counts instances where both checks give the same verdict.
	// (The closed form assumes the practical configuration, so agreement is
	// expected on configuration-compliant instances.)
	Agreements int
}

// AblationDTRS measures A1 on n small configuration-compliant instances:
// v identical rings over one super ring's token set.
func AblationDTRS(n int, seed int64) (DTRSAblation, error) {
	rng := rand.New(rand.NewSource(seed))
	out := DTRSAblation{Instances: n}
	req := diversity.Requirement{C: 2, L: 2}
	for i := 0; i < n; i++ {
		// A super ring of 4–6 tokens over 2–4 HTs, duplicated v times.
		size := 4 + rng.Intn(3)
		hts := 2 + rng.Intn(3)
		origin := func(t chain.TokenID) chain.TxID { return chain.TxID(int(t) % hts) }
		toks := make([]chain.TokenID, size)
		for k := range toks {
			toks[k] = chain.TokenID(k)
		}
		ringTokens := chain.NewTokenSet(toks...)
		v := 1 + rng.Intn(size)
		rings := make([]rsgraph.Ring, v)
		for k := range rings {
			rings[k] = rsgraph.Ring{ID: chain.RSID(k), Tokens: ringTokens}
		}
		in := rsgraph.NewInstance(rings)

		var exactOK bool
		out.ExactTime += Timer(func() {
			ok, err := dtrs.AllSatisfyExact(in, 0, origin, req, rsgraph.EnumOptions{})
			exactOK = ok && err == nil
		})
		var closedOK bool
		out.ClosedTime += Timer(func() {
			closedOK = dtrs.AllSatisfyClosedForm(ringTokens, v, origin, req)
		})
		if exactOK == closedOK {
			out.Agreements++
		}
	}
	return out, nil
}

// EtaAblation is A2: the η guard versus selfish fee-minimising users. Each
// user first tries the cheapest possible ring — a bare (10,1) requirement
// that a mixin-free singleton satisfies — and, if the system rejects it,
// falls back to a diverse (2,2) ring. Without the guard the chain fills
// with traced singletons; with it, selfish users are forced to buy
// anonymity and the exact adversary ends up tracing nothing.
type EtaAblation struct {
	RingsCommitted   int
	CheapCommitted   int // rings committed under the selfish requirement
	ForcedDiverse    int // rings committed only after the guard pushed back
	Stranded         int // tokens whose spend failed even after fallback
	TracedRings      int // rings the exact chain-reaction analysis traces
	ProvablyConsumed int
	TokensTotal      int
}

// AblationEta drives the selfish-user sequence over a 12-token batch (one
// token per historical transaction) for the given η.
func AblationEta(eta float64, seed int64) (EtaAblation, error) {
	l := chain.NewLedger()
	block := l.BeginBlock()
	const tokens = 12
	for i := 0; i < tokens; i++ {
		if _, err := l.AddTx(block, 1); err != nil {
			return EtaAblation{}, err
		}
	}
	cfg := tokenmagic.Config{
		Lambda:    tokens,
		Eta:       eta,
		Headroom:  false, // selfish users claim the weakest thing they can
		Algorithm: tokenmagic.Smallest,
	}
	rng := rand.New(rand.NewSource(seed))
	f, err := tokenmagic.New(l, cfg, rng)
	if err != nil {
		return EtaAblation{}, err
	}
	out := EtaAblation{TokensTotal: tokens}
	cheap := diversity.Requirement{C: 10, L: 1}   // a singleton passes this
	fallback := diversity.Requirement{C: 2, L: 2} // forces ≥ 2 source txs
	universe := l.TokensInBlocks(block, block)
	for _, target := range universe {
		if _, _, err := f.GenerateAndCommit(target, cheap); err == nil {
			out.RingsCommitted++
			out.CheapCommitted++
			continue
		}
		if _, _, err := f.GenerateAndCommit(target, fallback); err == nil {
			out.RingsCommitted++
			out.ForcedDiverse++
			continue
		}
		out.Stranded++
	}
	a := adversary.ChainReaction(l.Rings(), nil, l.OriginFunc())
	m := adversary.Summarise(a)
	out.TracedRings = m.Traced
	out.ProvablyConsumed = len(a.Consumed)
	return out, nil
}

// HeadroomAblation is A3: with headroom off, how often do committed rings
// end up with DTRSs violating the user's requirement; with headroom on the
// count must be zero (Theorem 6.4).
type HeadroomAblation struct {
	Committed  int
	Violations int
}

// AblationHeadroom works in the regime the second configuration exists for:
// a universe of fresh singleton tokens (one per historical transaction), so
// the solver's rings are exactly minimal — ℓ+1 singleton classes under
// c = 1 — and the users of one region spend their tokens one after another,
// so subset counts climb and Theorem-6.1 DTRSs become realisable. Without
// headroom a minimal ring's ψ sets drop to ℓ classes and fail the declared
// (c, ℓ); with headroom (solve at ℓ+1) every ψ retains ℓ+1 classes and
// passes (Theorem 6.4).
func AblationHeadroom(headroom bool, n int, seed int64) (HeadroomAblation, error) {
	l := chain.NewLedger()
	block := l.BeginBlock()
	const tokens = 16
	for i := 0; i < tokens; i++ {
		if _, err := l.AddTx(block, 1); err != nil {
			return HeadroomAblation{}, err
		}
	}
	universe := l.TokensInBlocks(block, block)
	origin := l.OriginFunc()
	req := diversity.Requirement{C: 1, L: 4}
	out := HeadroomAblation{}
	// The first spend creates a ring; subsequent users spend the other
	// tokens of that same ring region, producing supersets/twins whose
	// subset count v grows each time.
	var region chain.TokenSet
	for i := 0; i < n; i++ {
		var target chain.TokenID
		if len(region) == 0 {
			target = universe[int(seed)%len(universe)]
		} else {
			target = region[i%len(region)]
		}
		supers, fresh := selector.Decompose(l.Rings(), universe)
		eff := req
		if headroom {
			eff = req.WithHeadroom()
		}
		p, err := selector.NewTable(universe, supers, fresh, origin).Problem(target, eff)
		if err != nil {
			continue
		}
		res, err := selector.Progressive(p)
		if err != nil {
			continue
		}
		if _, err := l.AppendRS(res.Tokens, req.C, req.L); err != nil {
			return out, err
		}
		out.Committed++
		if len(region) == 0 {
			region = res.Tokens
		}
	}
	// Audit every committed ring's realisable DTRSs against the user's
	// declared requirement.
	rings := l.Rings()
	for i := range rings {
		v := 0
		for _, rj := range rings {
			if rj.Tokens.SubsetOf(rings[i].Tokens) {
				v++
			}
		}
		if !dtrs.AllSatisfyClosedForm(rings[i].Tokens, v, origin, req) {
			out.Violations++
		}
	}
	return out, nil
}
