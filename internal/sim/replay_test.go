package sim

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	itm "tokenmagic/internal/tokenmagic"
	"tokenmagic/internal/workload"
)

func replayFixture(t *testing.T) (*itm.Framework, []Request) {
	t.Helper()
	d, err := workload.Synthetic(workload.SyntheticParams{
		NumSupers: 0, SuperSizeMin: 1, SuperSizeMax: 1,
		NumFresh: 30, Sigma: 6, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := itm.New(d.Ledger, itm.Config{
		Lambda:    d.Ledger.NumTokens(),
		Headroom:  true,
		Algorithm: itm.Progressive,
		Randomize: true,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	req := diversity.Requirement{C: 1, L: 3}
	var reqs []Request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, Request{Target: chain.TokenID(i * 3), Req: req})
	}
	return f, reqs
}

// Replay must be a pure function of (framework state, requests, seed): the
// outcome list is identical at every worker count, position-aligned with
// the requests.
func TestReplayDeterministicAcrossWorkers(t *testing.T) {
	const seed = 17
	f1, reqs := replayFixture(t)
	base := Replay(context.Background(), f1, reqs, seed, 1)
	if len(base) != len(reqs) {
		t.Fatalf("got %d outcomes for %d requests", len(base), len(reqs))
	}
	succeeded := 0
	for i, o := range base {
		if o.Target != reqs[i].Target {
			t.Fatalf("outcome %d misaligned: target %v for request %v", i, o.Target, reqs[i].Target)
		}
		if o.Err == nil {
			succeeded++
			if !o.Tokens.Contains(o.Target) {
				t.Fatalf("outcome %d: ring %v misses target %v", i, o.Tokens, o.Target)
			}
		}
	}
	if succeeded == 0 {
		t.Fatal("vacuous: no replayed request produced a ring")
	}
	for _, workers := range []int{2, 4, 8} {
		fw, _ := replayFixture(t)
		got := Replay(context.Background(), fw, reqs, seed, workers)
		for i := range base {
			if (base[i].Err == nil) != (got[i].Err == nil) {
				t.Fatalf("w=%d outcome %d error divergence: %v vs %v", workers, i, base[i].Err, got[i].Err)
			}
			if base[i].Err == nil && !base[i].Tokens.Equal(got[i].Tokens) {
				t.Fatalf("w=%d outcome %d ring divergence: %v vs %v", workers, i, base[i].Tokens, got[i].Tokens)
			}
		}
	}
}

// A dead context surfaces per-outcome errors instead of hanging or
// panicking.
func TestReplayCancelled(t *testing.T) {
	f, reqs := replayFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, o := range Replay(ctx, f, reqs, 5, 4) {
		if o.Err == nil {
			t.Fatalf("outcome %d succeeded under a cancelled context", i)
		}
	}
}

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

// Replay is the parallel request replay the determinism tests drive: it
// runs every request against f and returns outcomes position-aligned with
// reqs. Request i derives its seed from the batch seed
// (itm.DeriveSeed(seed, itm.ReplayStreamBase+i)), so the outcome list is a
// pure function of (framework state, requests, seed). Replay only generates
// (no commits), which is what makes the requests independent. workers bounds the pool (≤ 1 runs sequentially); each
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
