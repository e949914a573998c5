package tokenmagic

// The parallel solve executor behind Algorithm 1's candidate sampling.
//
// GenerateRS sweeps one DA-MS solve per batch token; the solves are
// independent, so they fan out over a bounded worker pool
// (Config.Parallelism). Three properties make the fan-out safe to rely on:
//
//  1. Determinism. Every request owns a 64-bit seed; the rng stream each
//     candidate solve consumes (only TM_R draws) and the stream behind the
//     final uniform pick are derived from that seed with a SplitMix64-style
//     split, keyed by candidate index. No stream is shared across
//     goroutines, so the scheduler cannot influence any draw and a request
//     replays byte-identically at every worker count — the contract the
//     property and fuzz suites (prop_test.go, fuzz_test.go) enforce.
//  2. Ordered merge. Results are gathered by candidate index, so the merged
//     candidate list — and therefore the uniform pick — is identical to the
//     sequential executor's.
//  3. Cancellation. Workers solve under a context; when Config.StopAfter
//     satisfying candidates are decided (in index order), or when the
//     caller's context dies, in-flight sibling solves are cancelled and
//     abandon at their next loop boundary.

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

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
// pure function, so replaying a request re-derives the identical streams no
// matter how many workers race over the candidates.
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

// parallelism resolves Config.Parallelism: 0 means one worker per available
// CPU, 1 forces the sequential executor, anything else is taken as given.
func (f *Framework) parallelism() int {
	if f.cfg.Parallelism > 0 {
		return f.cfg.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Candidate slot states. A slot is decided once its solve finished (or was
// skipped); the prefix pointer below only advances over decided slots, which
// is what makes StopAfter deterministic under arbitrary completion order.
const (
	candPending uint8 = iota
	candUnsat         // solve failed, was cancelled, or ring misses the target
	candSat           // eligible candidate containing the target
)

// sweep is what every solve of one selection request shares: the consuming
// token's batch, the rings over it (TM_B's input) and the module table of
// its decomposition. The Algorithm-1 sweep solves every batch token over it;
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
	// how many ran and their summed latency. Every worker adds to them, so
	// with several workers solveUS can exceed the span's wall time.
	solves, solveUS atomic.Int64
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

// sampleCandidates runs Algorithm 1 lines 2–6 over the sweep's batch: one
// solve per batch token, keeping the candidates that contain the consuming
// token, merged in batch token order. The sweep's module table is shared
// read-only by every worker. With one worker the solves run in-place;
// otherwise they fan out over the pool. Both paths return byte-identical
// slices for the same seed. A non-nil error is only ever the caller's
// context failing.
func (f *Framework) sampleCandidates(ctx context.Context, sw *sweep) ([]selector.Result, error) {
	universe := sw.universe
	n := len(universe)
	if n == 0 {
		return nil, ctx.Err()
	}
	workers := f.parallelism()
	if workers > n {
		workers = n
	}
	results := make([]selector.Result, n)
	states := make([]uint8, n)

	if workers <= 1 {
		sat := 0
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if res, ok := f.solveCandidate(ctx, sw, universe[i], i); ok {
				results[i], states[i] = res, candSat
				sat++
				if f.cfg.StopAfter > 0 && sat >= f.cfg.StopAfter {
					break
				}
			} else {
				states[i] = candUnsat
			}
		}
		return gatherCandidates(results, states, f.cfg.StopAfter), nil
	}

	// Parallel path. cancel() fires either when the caller's context dies or
	// when the decided prefix proves the first StopAfter satisfying
	// candidates are in hand; cancelled workers leave their slot pending,
	// which is fine — a pending slot can only sit beyond the prefix that
	// triggered the stop, and the gather below never reads past it.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu      sync.Mutex
		decided int // slots [0, decided) are all non-pending
		sat     int // satisfying slots within [0, decided)
	)
	finish := func(i int, res selector.Result, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if ok {
			results[i], states[i] = res, candSat
		} else {
			states[i] = candUnsat
		}
		for decided < n && states[decided] != candPending {
			if states[decided] == candSat {
				sat++
				if f.cfg.StopAfter > 0 && sat >= f.cfg.StopAfter {
					decided++
					cancel() // first StopAfter candidates decided: stop siblings
					return
				}
			}
			decided++
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || cctx.Err() != nil {
					return
				}
				res, ok := f.solveCandidate(cctx, sw, universe[i], i)
				finish(i, res, ok)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err // the caller's context died, not a StopAfter stop
	}
	return gatherCandidates(results, states, f.cfg.StopAfter), nil
}

// gatherCandidates merges the decided slots in candidate order, truncating
// at the StopAfter budget so sequential and parallel executors agree even
// when a fast sibling decided extra slots before cancellation landed.
func gatherCandidates(results []selector.Result, states []uint8, stopAfter int) []selector.Result {
	var out []selector.Result
	for i, s := range states {
		if s != candSat {
			continue
		}
		out = append(out, results[i])
		if stopAfter > 0 && len(out) >= stopAfter {
			break
		}
	}
	return out
}
