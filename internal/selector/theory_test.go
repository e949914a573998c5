package selector

import (
	"errors"
	"math/rand"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
)

// modularOptimum brute-forces the smallest feasible module union containing
// the mandatory module — the OPT of Theorems 6.5/6.7 (which are stated over
// the modular solution space). cands are the oracle's candidate modules.
func modularOptimum(p *Problem, cands []Module) (int, bool) {
	n := len(cands)
	best := -1
	for mask := 0; mask < 1<<n; mask++ {
		tokens := p.Mandatory.Tokens
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				tokens = tokens.Union(cands[i].Tokens)
			}
		}
		if !diversity.SatisfiesTokens(tokens, p.Origin, p.Req) {
			continue
		}
		if best == -1 || len(tokens) < best {
			best = len(tokens)
		}
	}
	return best, best != -1
}

// randomModularProblem draws a small decomposition and returns a
// Table-built Problem for one of its tokens, with the oracle's candidate
// modules for the brute-force side; nil when the draw has no valid problem.
func randomModularProblem(rng *rand.Rand) (*Problem, []Module) {
	nHT := 3 + rng.Intn(4)
	hts := make(map[chain.TokenID]chain.TxID)
	next := chain.TokenID(0)
	var rings []chain.RingRecord
	var universe chain.TokenSet
	for s := 0; s < 2+rng.Intn(3); s++ {
		var toks []chain.TokenID
		for k := 0; k < 1+rng.Intn(4); k++ {
			hts[next] = chain.TxID(rng.Intn(nHT))
			toks = append(toks, next)
			next++
		}
		rings = append(rings, chain.RingRecord{ID: chain.RSID(s), Tokens: chain.NewTokenSet(toks...), Pos: s})
		universe = universe.Union(chain.NewTokenSet(toks...))
	}
	for f := 0; f < rng.Intn(4); f++ {
		hts[next] = chain.TxID(rng.Intn(nHT))
		universe = universe.Add(next)
		next++
	}
	origin := func(t chain.TokenID) chain.TxID {
		if h, ok := hts[t]; ok {
			return h
		}
		return chain.NoTx
	}
	target := universe[rng.Intn(len(universe))]
	req := diversity.Requirement{C: 0.5 + 1.5*rng.Float64(), L: 1 + rng.Intn(3)}
	supers, fresh := Decompose(rings, universe)
	p, err := NewTable(universe, supers, fresh, origin).Problem(target, req)
	if err != nil {
		return nil, nil
	}
	_, cands, err := oracleProblem(target, supers, fresh, origin, req)
	if err != nil {
		return nil, nil
	}
	return p, cands
}

// Theorem 6.5: Progressive's result size stays within
// ε + q_M·z_M·10^γ of the modular optimum, where ε = Σ_{i≤ℓ} 1/i. The bound
// is very loose; we check it exactly as stated.
func TestProgressiveApproximationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	checked := 0
	for trial := 0; trial < 200 && checked < 60; trial++ {
		p, cands := randomModularProblem(rng)
		if p == nil {
			continue
		}
		res, err := Progressive(p)
		if errors.Is(err, ErrNoEligible) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		opt, ok := modularOptimum(p, cands)
		if !ok {
			t.Fatalf("solver found %v but brute force found nothing", res.Tokens)
		}
		checked++

		// Assemble the Theorem-6.5 ratio bound.
		eps := 0.0
		for i := 1; i <= p.Req.L; i++ {
			eps += 1 / float64(i)
		}
		qM := float64(maxHTCount(unionAll(p, cands), p.Origin))
		zM := 0.0
		for _, m := range append([]Module{p.Mandatory}, cands...) {
			if !m.Fresh && float64(m.Size()) > zM {
				zM = float64(m.Size())
			}
		}
		gamma := gammaOf(p.Req.C)
		bound := eps + qM*zM*gamma
		if ratio := float64(res.Size()) / float64(opt); ratio > bound+1e-9 {
			t.Fatalf("ratio %.2f exceeds Theorem 6.5 bound %.2f (size %d, opt %d, req %v)",
				ratio, bound, res.Size(), opt, p.Req)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d feasible instances checked", checked)
	}
}

// Theorem 6.7: the Game equilibrium size is within
// q_M·(1 + 1/(c·ℓ)) + z_M/ℓ of OPT (PoA bound); PoS ≤ 1 means the *best*
// equilibrium matches OPT, which a single run cannot witness, so we check
// the PoA side.
func TestGamePoABound(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	checked := 0
	for trial := 0; trial < 200 && checked < 60; trial++ {
		p, cands := randomModularProblem(rng)
		if p == nil {
			continue
		}
		res, err := Game(p)
		if errors.Is(err, ErrNoEligible) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		opt, ok := modularOptimum(p, cands)
		if !ok {
			t.Fatalf("solver found %v but brute force found nothing", res.Tokens)
		}
		checked++

		qM := float64(maxHTCount(unionAll(p, cands), p.Origin))
		zM := 0.0
		for _, m := range append([]Module{p.Mandatory}, cands...) {
			if !m.Fresh && float64(m.Size()) > zM {
				zM = float64(m.Size())
			}
		}
		cl := p.Req.C * float64(p.Req.L)
		bound := qM*(1+1/cl) + zM/float64(p.Req.L)
		if bound < 1 {
			bound = 1 // PoA is a ratio; it is never below 1
		}
		if ratio := float64(res.Size()) / float64(opt); ratio > bound+1e-9 {
			t.Fatalf("PoA ratio %.2f exceeds Theorem 6.7 bound %.2f (size %d, opt %d, req %v)",
				ratio, bound, res.Size(), opt, p.Req)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d feasible instances checked", checked)
	}
}

// Theorem 6.6's convergence bound: best-response sweeps are O(n); assert the
// implementation's sweep counter stays within its own cap on random inputs
// (i.e. it always converges before the guard).
func TestGameConvergesWithinSweepCap(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		p, cands := randomModularProblem(rng)
		if p == nil {
			continue
		}
		res, err := Game(p)
		if errors.Is(err, ErrNoEligible) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		cap := 4*len(cands) + 16
		if res.Iterations > cap {
			t.Fatalf("sweeps %d exceeded cap %d", res.Iterations, cap)
		}
	}
}

func unionAll(p *Problem, cands []Module) chain.TokenSet {
	u := p.Mandatory.Tokens
	for _, m := range cands {
		u = u.Union(m.Tokens)
	}
	return u
}

// maxHTCount returns q_M, the most tokens any one HT contributes to toks.
func maxHTCount(toks chain.TokenSet, origin func(chain.TokenID) chain.TxID) int {
	count := map[chain.TxID]int{}
	qM := 0
	for _, t := range toks {
		count[origin(t)]++
		qM = max(qM, count[origin(t)])
	}
	return qM
}

// gammaOf returns 10^γ where γ is the smallest integer making 10^γ·c an
// integer (the paper's δ-granularity constant).
func gammaOf(c float64) float64 {
	scale := 1.0
	for i := 0; i < 12; i++ {
		v := c * scale
		if v == float64(int64(v)) {
			return scale
		}
		scale *= 10
	}
	return scale
}
