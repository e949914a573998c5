package node

// Regression for the concurrent-spend commit race: ring selection runs
// outside the node mutex, so a spend can select against epoch E while a
// sibling's commit publishes E+1; the first commit then sees rings it never
// selected around and fails the practical-configuration check. Before the
// stale-epoch retry in spend(), this surfaced as spurious rejections (HTTP
// 422 through nodesvc) for perfectly spendable tokens. The retry re-selects
// against the advanced epoch, so concurrent spends of distinct tokens must
// all land.

import (
	"context"
	"strconv"
	"sync"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/obs/trace"
	itm "tokenmagic/internal/tokenmagic"
)

// siblingRaceNode builds a one-batch node whose test hook lands a
// conflicting ring in the window between a spend's first ring selection and
// its commit. The sibling's ring is every batch token except target: it
// cannot contain any ring that includes the target, and any ring with the
// target plus ≥1 mixin overlaps it — so whatever ring the spend selected
// against the pre-sibling epoch is guaranteed to conflict.
func siblingRaceNode(t *testing.T, target chain.TokenID, req diversity.Requirement) (*Node, *obs.Registry) {
	t.Helper()
	l := chain.NewLedger()
	b := l.BeginBlock()
	for i := 0; i < 16; i++ {
		if _, err := l.AddTx(b, 2); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	n, err := New(l, Config{
		Framework: itm.Config{
			Lambda: 32, Eta: 0, Headroom: true,
			Algorithm: itm.Progressive, Metrics: reg,
		},
		AllowUnsigned: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sibling []chain.TokenID
	for i := 0; i < l.NumTokens(); i++ {
		if chain.TokenID(i) != target {
			sibling = append(sibling, chain.TokenID(i))
		}
	}
	fired := false
	n.testHookAfterSelect = func() {
		if fired {
			return
		}
		fired = true
		if _, cerr := n.fw.Commit(chain.NewTokenSet(sibling...), req); cerr != nil {
			t.Errorf("sibling commit: %v", cerr)
		}
	}
	return n, reg
}

// TestSpendRetriesAfterSiblingCommit reproduces the race deterministically:
// the first commit attempt must fail (its ring partially overlaps the
// sibling's), and the retry — re-selecting against the advanced epoch —
// must land. Without the retry this spend surfaced the sibling's commit as
// a spurious rejection.
func TestSpendRetriesAfterSiblingCommit(t *testing.T) {
	req := diversity.Requirement{C: 1, L: 2}
	const target = chain.TokenID(5)
	n, reg := siblingRaceNode(t, target, req)

	res, err := n.Spend(context.Background(), target, req)
	if err != nil {
		t.Fatalf("spend spuriously rejected after sibling commit: %v", err)
	}
	if !res.Ring.Contains(target) {
		t.Fatalf("ring %v misses target", res.Ring)
	}
	if got := reg.Counter("node.spend.retry.stale_epoch").Value(); got == 0 {
		t.Fatal("retry counter did not fire: the race was not exercised")
	}
	if got := reg.Counter("node.spend.reject.config").Value(); got != 0 {
		t.Fatalf("spurious config rejections: %d", got)
	}
}

// A retried spend is visible in its trace: the request carries
// attempts=<n>, and each attempt opened its own sample, verify and commit
// stages. A spend that did not retry carries no attempts annotation.
func TestSpendRetryAnnotatesTrace(t *testing.T) {
	req := diversity.Requirement{C: 1, L: 2}
	const target = chain.TokenID(5)
	n, reg := siblingRaceNode(t, target, req)
	col := trace.NewCollector()

	ctx, tr := trace.New(context.Background(), col, "test.spend")
	if _, err := n.Spend(ctx, target, req); err != nil {
		t.Fatalf("spend: %v", err)
	}
	tr.Finish("200")
	got := col.Snapshot("", 1).Recent[0]
	retries := reg.Counter("node.spend.retry.stale_epoch").Value()
	if retries == 0 {
		t.Fatal("retry counter did not fire: the race was not exercised")
	}
	if want := strconv.FormatInt(retries+1, 10); got.Annotations["attempts"] != want {
		t.Fatalf("trace attempts = %q, want %s (annotations %v)", got.Annotations["attempts"], want, got.Annotations)
	}
	count := map[string]int64{}
	for _, sp := range got.Spans {
		count[sp.Name]++
	}
	for _, stage := range []string{"sample", "commit", "verify"} {
		if count[stage] != retries+1 {
			t.Errorf("%s spans = %d, want one per attempt (%d)", stage, count[stage], retries+1)
		}
	}

	// The sibling hook fires once; the next spend lands first time.
	ctx, tr = trace.New(context.Background(), col, "test.spend")
	if _, err := n.Spend(ctx, chain.TokenID(6), req); err != nil {
		t.Fatalf("second spend: %v", err)
	}
	tr.Finish("200")
	if a, ok := col.Snapshot("", 1).Recent[0].Annotations["attempts"]; ok {
		t.Fatalf("first-time spend annotated attempts=%s", a)
	}
}

func TestConcurrentSpendsOfDistinctTokensNeverSpuriouslyReject(t *testing.T) {
	const (
		nTx      = 16 // ×2 outputs = 32 tokens
		spenders = 8
	)
	l := chain.NewLedger()
	b := l.BeginBlock()
	for i := 0; i < nTx; i++ {
		if _, err := l.AddTx(b, 2); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	n, err := New(l, Config{
		Framework: itm.Config{
			// η off: this test isolates the epoch race; the liveness guard
			// legitimately rejects late spends in a drained batch.
			Lambda: 16, Eta: 0, Headroom: true,
			Algorithm: itm.Progressive, Randomize: true,
			Metrics: reg,
		},
		AllowUnsigned: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := diversity.Requirement{C: 1, L: 2}

	// All spenders target distinct tokens spread across both batches and
	// fire together, maximising generate/commit interleavings.
	var wg sync.WaitGroup
	errs := make([]error, spenders)
	start := make(chan struct{})
	for i := 0; i < spenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			target := chain.TokenID(i * 4)
			_, errs[i] = n.Spend(context.Background(), target, req)
		}(i)
	}
	close(start)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Errorf("spend of token %d spuriously rejected: %v", i*4, err)
		}
	}
	if n.ChainRings() != spenders {
		t.Fatalf("%d rings on chain, want %d", n.ChainRings(), spenders)
	}
	// The retry path is exercised opportunistically (the race may not fire
	// on a given run); what must hold is that retries never exceed the
	// bound and rejects stayed at zero.
	if v := reg.Counter("node.spend.retry.stale_epoch").Value(); v > spenders*maxStaleRetries {
		t.Fatalf("retry counter implausible: %d", v)
	}
	for _, reason := range []string{"config", "diversity", "liveness"} {
		if v := reg.Counter("node.spend.reject." + reason).Value(); v != 0 {
			t.Fatalf("spurious %s rejections: %d", reason, v)
		}
	}
}
