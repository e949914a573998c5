package tokenmagic

// Algorithm 1's candidate sweep and the seed streams behind it.
//
// GenerateRS takes one candidate ring per batch token and picks uniformly
// among those containing the consuming token. The sweep runs in batch token
// order on the request's own goroutine, and two properties make it cheap to
// rely on:
//
//  1. Determinism. Every request owns a 64-bit seed; the rng stream each
//     candidate solve consumes (only TM_R draws) and the stream behind the
//     final uniform pick are derived from that seed with a SplitMix64-style
//     split, keyed by candidate index, so a request replays byte-identically
//     — the contract the property and fuzz suites (prop_test.go,
//     fuzz_test.go) enforce.
//  2. One solve per module. A Problem depends on its target only through
//     the mandatory module, and TM_P, TM_G and TM_S never read the target,
//     so every token of one module gets the same candidate. The sweep solves
//     each module once, at its first token, and hands the result to the
//     module's other tokens. TM_R (a derived stream per token) and TM_B
//     (BFSCtx reads the target) still solve once per token. The candidate
//     list is exactly the per-token sweep's, which sweep_oracle_test.go
//     keeps as the oracle.

import (
	"context"
	"math/rand"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/selector"
)

// Reserved stream tags for DeriveSeed. Candidate solves use their index as
// the stream, so the reserved tags sit at the top of the uint64 space where
// no batch can reach them.
const (
	// pickStream derives the rng behind Algorithm 1's final uniform pick.
	pickStream = ^uint64(0)
	// soloStream derives the rng for the single-solve (Randomize off) path.
	soloStream = ^uint64(1)
	// ReplayStreamBase is where callers replaying whole request batches
	// (internal/sim) start their per-request streams: request i uses
	// DeriveSeed(batchSeed, ReplayStreamBase+i), far away from both the
	// candidate-index streams and the reserved tags.
	ReplayStreamBase = uint64(1) << 32
)

// DeriveSeed splits one request seed into the seed of an independent,
// deterministic sub-stream. The mix is the SplitMix64 finaliser over the
// seed offset by the stream's multiple of the golden-ratio increment: the
// standard recipe for statistically independent fixed-seed streams, and a
// pure function, so replaying a request re-derives the identical streams.
//
//tmlint:hotpath
func DeriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// streamRand materialises a derived sub-stream as a *rand.Rand. This is the
// only construction site for the per-candidate generators; seed quality is
// decided where the request seed comes from (the injected rng, crypto-seeded
// by default via NewSamplingRand).
func streamRand(seed int64, stream uint64) *rand.Rand {
	//lint:ignore cryptorand derived per-candidate stream: the request seed is drawn from the injected rng, whose construction site (NewSamplingRand / caller) decides seed quality
	return rand.New(rand.NewSource(DeriveSeed(seed, stream)))
}

// sweep is what every solve of one selection request shares: the consuming
// token's batch, the rings over it (TM_B's input) and the module table of
// its decomposition. The Algorithm-1 sweep solves every batch module over it;
// the single-solve path (Randomize off) solves only the target. It lives only
// as long as the request. Nothing is cached across requests: the
// decomposition depends on the ring list, which every commit changes, and a
// cached table would keep one table per batch alive for good.
type sweep struct {
	universe chain.TokenSet
	rings    []chain.RingRecord
	table    *selector.Table
	target   chain.TokenID
	req      diversity.Requirement // headroom-adjusted
	seed     int64

	// solves and solveUS tally the request's solves for its sample span:
	// how many ran and their summed latency.
	solves, solveUS int64
}

// newSweep decomposes b at the pinned epoch and builds its module table.
func (f *Framework) newSweep(e *fwEpoch, b chain.Batch, target chain.TokenID, req diversity.Requirement, seed int64) *sweep {
	rings := e.view.RingsOver(b.Tokens)
	supers, fresh := selector.Decompose(rings, b.Tokens)
	return &sweep{
		universe: b.Tokens,
		rings:    rings,
		table:    selector.NewTable(b.Tokens, supers, fresh, e.origin),
		target:   target,
		req:      f.effectiveReq(req),
		seed:     seed,
	}
}

// solveCandidate runs Algorithm 1 lines 3–5 for one batch token: take its
// modular problem from the sweep's table, solve it (TM_R gets its derived
// stream), and keep the result only when it contains the consuming token.
func (f *Framework) solveCandidate(ctx context.Context, sw *sweep, tok chain.TokenID, idx int) (selector.Result, bool) {
	p, err := sw.table.Problem(tok, sw.req)
	if err != nil {
		return selector.Result{}, false
	}
	var rng *rand.Rand
	if f.cfg.Algorithm == RandomPick {
		rng = streamRand(sw.seed, uint64(idx))
	}
	res, err := f.solve(ctx, sw, p, rng)
	if err != nil || !res.Tokens.Contains(sw.target) {
		return selector.Result{}, false
	}
	return res, true
}

// moduleCandidate is one module's candidate, memoised for the rest of the
// sweep.
type moduleCandidate struct {
	res        selector.Result
	ok, solved bool
}

// sampleCandidates runs Algorithm 1 lines 2–6 over the sweep's batch: a
// candidate per batch token, keeping those that contain the consuming token,
// in batch token order, and stopping at the first Config.StopAfter of them.
// Under TM_P, TM_G and TM_S a token's candidate is its module's, solved once.
// A non-nil error is only ever the caller's context failing.
func (f *Framework) sampleCandidates(ctx context.Context, sw *sweep) ([]selector.Result, error) {
	var memo []moduleCandidate
	switch f.cfg.Algorithm {
	case Progressive, Game, Smallest:
		memo = make([]moduleCandidate, sw.table.Len())
	}
	var out []selector.Result
	for i, tok := range sw.universe {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var res selector.Result
		var ok bool
		if m := sw.table.ModuleAt(i); memo != nil && m >= 0 {
			c := &memo[m]
			if !c.solved {
				c.res, c.ok = f.solveCandidate(ctx, sw, tok, i)
				c.solved = true
			}
			res, ok = c.res, c.ok
		} else {
			res, ok = f.solveCandidate(ctx, sw, tok, i)
		}
		if !ok {
			continue
		}
		out = append(out, res)
		if f.cfg.StopAfter > 0 && len(out) >= f.cfg.StopAfter {
			break
		}
	}
	return out, nil
}
