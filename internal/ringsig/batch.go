package ringsig

// Engine + VerifyBatch: the batch verification front-end over the ring
// walk. An Engine owns the two caches that amortise repeated work — the
// hash-to-point memo and the verified-transcript cache — and fans batches
// across GOMAXPROCS workers that claim indices off an atomic cursor. Every
// signature gets one verdict, verifyOne's, whether it arrives alone or in
// a batch.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Engine signs and verifies ring signatures through the ring walk with
// optional cross-call amortisation. The zero value is ready to use and
// caches nothing; package-level Sign and Verify route through it. Fields are
// configuration, set before first use and not mutated afterwards; the
// caches themselves are safe for concurrent use.
type Engine struct {
	// Hp memoises hash-to-point across calls. nil: VerifyBatch installs a
	// fresh memo per batch (single Sign and Verify calls compute directly).
	Hp *HpCache
	// Seen remembers transcripts that verified, so re-validating a
	// signature the node already admitted (block validation at mine time)
	// skips the challenge chain. nil: every call walks the chain.
	Seen *SigCache
}

// VerifyRequest is one signature check in a batch.
type VerifyRequest struct {
	Sig  *Signature
	Ring []Point
	Msg  []byte
}

// BatchResult reports a batch verification.
type BatchResult struct {
	// Errs has one entry per request, nil for signatures that verified.
	Errs []error
	// FirstFailure is the lowest failing index, -1 when all verified.
	FirstFailure int
	// CacheHits counts signatures settled by the transcript cache.
	CacheHits int
}

// OK reports whether every signature in the batch verified.
func (r BatchResult) OK() bool { return r.FirstFailure == -1 }

// errUndecided marks slots a cancelled batch never reached.
var errUndecided = errors.New("ringsig: batch verification cancelled")

// Verify checks one signature through the engine's caches.
func (e *Engine) Verify(sig *Signature, ring []Point, msg []byte) error {
	err, _ := e.verifyOne(sig, ring, msg, e.Hp)
	return err
}

// VerifyBatch checks a batch of ring signatures on up to GOMAXPROCS
// workers. Requests are independent, so workers claim indices off an atomic
// cursor and record per-index results; each entry of Errs is exactly what
// Verify returns for that request, so the merged BatchResult is identical
// at every GOMAXPROCS. FirstFailure names the lowest rejected index, for
// the caller to attribute blame.
//
// Cancellation marks unvisited requests with ctx.Err(); already-decided
// indices keep their verdicts.
func (e *Engine) VerifyBatch(ctx context.Context, reqs []VerifyRequest) BatchResult {
	res := BatchResult{Errs: make([]error, len(reqs)), FirstFailure: -1}
	if len(reqs) == 0 {
		return res
	}
	hp := e.Hp
	if hp == nil {
		// Memo lifetime = this batch: rings drawn from one ledger overlap,
		// so even a batch-scoped memo removes most hash-to-point work.
		hp = NewHpCache()
	}

	var hits atomic.Int64
	for i := range res.Errs {
		res.Errs[i] = errUndecided
	}
	parallelFor(runtime.GOMAXPROCS(0), len(reqs), func(i int) {
		if ctx.Err() != nil {
			return // cancelled: the slot stays undecided
		}
		err, hit := e.verifyOne(reqs[i].Sig, reqs[i].Ring, reqs[i].Msg, hp)
		if hit {
			hits.Add(1)
		}
		res.Errs[i] = err
	})
	for i, err := range res.Errs {
		if err == errUndecided { // cancelled before this slot was reached
			res.Errs[i] = ctx.Err()
		}
	}

	res.CacheHits = int(hits.Load())
	for i, err := range res.Errs {
		if err != nil {
			res.FirstFailure = i
			break
		}
	}
	return res
}

// parallelFor calls fn(i) for every i in [0, n) and returns once every
// call has returned. Up to workers goroutines (never more than n) claim
// indices off one atomic cursor, so fn must only write state owned by its
// index; with one worker, fn runs inline on the caller's goroutine.
func parallelFor(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// checkShape runs the structural checks every verification starts with, in
// the same order (and with the same error identities) as the test oracle:
// a ring of at least two on-curve keys, one response per member, an
// on-curve key image, and every scalar in [0, N).
func checkShape(sig *Signature, ring []Point) error {
	n := len(ring)
	if sig == nil || n < 2 || len(sig.S) != n || sig.C0 == nil {
		return ErrInvalid
	}
	if sig.Image.IsZero() || !Curve.IsOnCurve(sig.Image.X, sig.Image.Y) {
		return ErrInvalid
	}
	for _, p := range ring {
		if p.IsZero() || !Curve.IsOnCurve(p.X, p.Y) {
			return ErrBadRingKeys
		}
	}
	// The test oracle range-checks scalars lazily inside the chain loop and
	// C0 implicitly (an out-of-range C0 can never equal the reduced final
	// challenge). Hoisting both here changes no decision — any bad scalar
	// yields ErrInvalid on both — and lets the walk assume fixed-width
	// 32-byte operands.
	if sig.C0.Sign() < 0 || sig.C0.Cmp(curveN) >= 0 {
		return ErrInvalid
	}
	for _, s := range sig.S {
		if s == nil || s.Sign() < 0 || s.Cmp(curveN) >= 0 {
			return ErrInvalid
		}
	}
	return nil
}

// verifyOne runs the full single-signature check: checkShape, then the
// transcript cache, then the challenge chain through the ring walk.
// Successful chains are recorded in the cache.
func (e *Engine) verifyOne(sig *Signature, ring []Point, msg []byte, hp *HpCache) (err error, cacheHit bool) {
	if err := checkShape(sig, ring); err != nil {
		return err, false
	}
	n := len(ring)

	var key [32]byte
	if e.Seen != nil {
		key = transcriptKey(sig, ring, msg)
		if e.Seen.Seen(key) {
			// Keys bind every byte the decision depends on, so a hit
			// replays a verification that already succeeded.
			return nil, true
		}
	}

	w := startWalk(hp, msg, ring, sig.S, 0, n)
	c := sig.C0
	for j := 0; j < n; j++ {
		c = w.step(j, sig.Image, c)
	}
	w.finish()
	if c.Cmp(sig.C0) != 0 {
		return ErrInvalid, false
	}
	if e.Seen != nil {
		e.Seen.Record(key)
	}
	return nil, false
}

// defaultEngine backs the package-level Sign and Verify wrappers: no caches.
var defaultEngine Engine
