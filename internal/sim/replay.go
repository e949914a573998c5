package sim

// Parallel request replay: run a fixed list of generation requests against
// one framework across a worker pool and merge outcomes back in request
// order. Each request i derives its seed from the batch seed
// (itm.DeriveSeed(seed, itm.ReplayStreamBase+i)), so the outcome list is a
// pure function of (framework state, requests, seed) — scheduling, worker
// count and completion order cannot leak in. Replay only generates (no
// commits), which is what makes the requests independent; interleaving
// commits would re-couple them through the ledger.

import (
	"context"
	"sync"
	"sync/atomic"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	itm "tokenmagic/internal/tokenmagic"
)

// Request is one replayed generation: consume Target under Req.
type Request struct {
	Target chain.TokenID
	Req    diversity.Requirement
}

// Outcome is the result of one replayed request, at the same index as its
// Request.
type Outcome struct {
	Target chain.TokenID
	Tokens chain.TokenSet
	Err    error
}

// Replay runs every request against f and returns outcomes position-aligned
// with reqs. workers bounds the pool (≤ 1 runs sequentially); each
// GenerateRSSeeded call runs its candidate sweep on its worker's goroutine.
// If ctx dies, unstarted requests report its error.
func Replay(ctx context.Context, f *itm.Framework, reqs []Request, seed int64, workers int) []Outcome {
	out := make([]Outcome, len(reqs))
	run := func(i int) {
		r := reqs[i]
		reqSeed := itm.DeriveSeed(seed, itm.ReplayStreamBase+uint64(i))
		res, err := f.GenerateRSSeeded(ctx, r.Target, r.Req, reqSeed)
		out[i] = Outcome{Target: r.Target, Tokens: res.Tokens, Err: err}
	}
	if workers <= 1 || len(reqs) <= 1 {
		for i := range reqs {
			run(i)
		}
		return out
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	return out
}
