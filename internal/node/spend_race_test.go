package node

// Spends of one batch are ordered by the batch's lock, held from before
// selection until after commit, and Mine waits for every spend in flight.
// So a sibling spend or a mine started inside a spend's selection/commit
// window (through testHookAfterSelect) commits after it, never under it:
// every spend selects once and lands.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/obs/trace"
	itm "tokenmagic/internal/tokenmagic"
)

// raceGrace is how long a test hook waits for the spend or mine it started
// inside a selection/commit window. Without the batch order the started
// operation finishes well within it and commits under the waiting spend;
// with the order it cannot finish until the hook returns, and the grace
// just runs out.
const raceGrace = 200 * time.Millisecond

// runWithin starts fn and waits for it to finish or for raceGrace to pass,
// returning a channel closed when fn has finished.
func runWithin(fn func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(raceGrace):
	}
	return done
}

// oneBatchNode builds an unsigned node over one 32-token batch (16
// two-output transactions) with η off, so every refusal would be an
// ordering artefact.
func oneBatchNode(t *testing.T) (*Node, *obs.Registry) {
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
	return n, reg
}

// tracedSpend spends target under its own trace and returns the number of
// spans of each stage it opened.
func tracedSpend(n *Node, target chain.TokenID, req diversity.Requirement) (map[string]int, SpendResult, error) {
	col := trace.NewCollector()
	ctx, tr := trace.New(context.Background(), col, "test.spend")
	res, err := n.Spend(ctx, target, req)
	tr.Finish("200")
	count := map[string]int{}
	for _, sp := range col.Snapshot("", 1).Recent[0].Spans {
		count[sp.Name]++
	}
	return count, res, err
}

// TestSiblingSpendsInTheWindowWaitForTheBatch: N spends of one batch, each
// started from inside the previous one's selection/commit window. Each
// sibling must wait for the spend that started it, so every spend lands and
// selects exactly once.
func TestSiblingSpendsInTheWindowWaitForTheBatch(t *testing.T) {
	const spends = 4
	n, reg := oneBatchNode(t)
	req := diversity.Requirement{C: 1, L: 2}
	targets := []chain.TokenID{0, 9, 18, 27}

	type outcome struct {
		samples map[string]int
		res     SpendResult
		err     error
	}
	var (
		started  atomic.Int32 // spends started so far
		outcomes = make([]outcome, spends)
		wg       sync.WaitGroup
	)
	spend := func(i int) {
		defer wg.Done()
		c, res, err := tracedSpend(n, targets[i], req)
		outcomes[i] = outcome{c, res, err}
	}
	n.testHookAfterSelect = func() {
		// Start the next sibling, if any are left, from this window.
		next := int(started.Add(1))
		if next >= spends {
			return
		}
		wg.Add(1)
		runWithin(func() { spend(next) })
	}
	wg.Add(1)
	spend(0)
	wg.Wait()

	for i, o := range outcomes {
		if o.err != nil {
			t.Errorf("spend of %d refused: %v", targets[i], o.err)
			continue
		}
		if !o.res.Ring.Contains(targets[i]) {
			t.Errorf("ring %v misses target %d", o.res.Ring, targets[i])
		}
		if o.samples["sample"] != 1 || o.samples["batch-wait"] != 1 {
			t.Errorf("spend of %d ran %d sample and %d batch-wait spans, want one each", targets[i], o.samples["sample"], o.samples["batch-wait"])
		}
	}
	if got := n.ChainRings(); got != spends {
		t.Fatalf("%d rings on chain, want %d", got, spends)
	}
	if got := reg.Counter("node.spend.accepted").Value(); got != spends {
		t.Fatalf("node.spend.accepted = %d, want %d", got, spends)
	}
}

// TestMineInTheWindowWaitsForTheSpend: a pending submission conflicts with
// every ring of the target but the whole batch, and Mine starts inside the
// spend's selection/commit window. Mine must wait: the spend lands with
// the ring it selected, and Mine then drops the pending entry, which the
// spend's ring has invalidated.
func TestMineInTheWindowWaitsForTheSpend(t *testing.T) {
	n, reg := oneBatchNode(t)
	req := diversity.Requirement{C: 1, L: 2}
	const target = chain.TokenID(5)
	var rest []chain.TokenID
	for i := 0; i < 32; i++ {
		if chain.TokenID(i) != target {
			rest = append(rest, chain.TokenID(i))
		}
	}
	if _, err := n.Submit(Submission{Tokens: chain.NewTokenSet(rest...), Req: req, Fee: 1}); err != nil {
		t.Fatalf("submit: %v", err)
	}

	var mined <-chan struct{}
	var mineErr error
	n.testHookAfterSelect = func() {
		if mined == nil {
			mined = runWithin(func() { _, mineErr = n.Mine(10) })
		}
	}
	count, res, err := tracedSpend(n, target, req)
	if err != nil {
		t.Fatalf("spend refused: %v", err)
	}
	<-mined
	if mineErr != nil {
		t.Fatalf("mine: %v", mineErr)
	}
	if count["sample"] != 1 {
		t.Fatalf("spend ran %d sample spans, want 1", count["sample"])
	}
	if !res.Ring.Contains(target) || len(res.Ring) == 32 {
		t.Fatalf("ring %v: want the target's own ring, selected before the pending entry was mined", res.Ring)
	}
	if got := reg.Counter("node.mine.dropped").Value(); got != 1 {
		t.Fatalf("node.mine.dropped = %d, want 1", got)
	}
	if n.PendingCount() != 0 || n.ChainRings() != 1 {
		t.Fatalf("pending %d, chain rings %d; want 0 and 1", n.PendingCount(), n.ChainRings())
	}
}

// TestSpendTraceHasOneSpanPerStage: a signed spend opens exactly one span of
// each stage, batch-wait first and at the top level, and carries no
// attempts annotation.
func TestSpendTraceHasOneSpanPerStage(t *testing.T) {
	n, _, _ := signedSpendNode(t, 10)
	col := trace.NewCollector()
	ctx, tr := trace.New(context.Background(), col, "test.spend")
	if _, err := n.Spend(ctx, 0, diversity.Requirement{C: 1, L: 3}); err != nil {
		t.Fatalf("spend: %v", err)
	}
	tr.Finish("200")
	got := col.Snapshot("", 1).Recent[0]
	count := map[string]int{}
	for _, sp := range got.Spans {
		count[sp.Name]++
	}
	for _, stage := range []string{"batch-wait", "sample", "sign", "verify-sig", "commit", "verify"} {
		if count[stage] != 1 {
			t.Errorf("%s spans = %d, want 1 (spans %v)", stage, count[stage], count)
		}
	}
	if first := got.Spans[0]; first.Name != "batch-wait" || first.Parent != -1 {
		t.Errorf("first span %q under %d, want a top-level batch-wait", first.Name, first.Parent)
	}
	if a, ok := got.Annotations["attempts"]; ok {
		t.Errorf("spend annotated attempts=%s", a)
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
			// η off: this test isolates spend ordering; the liveness guard
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
	for _, reason := range []string{"config", "diversity", "liveness"} {
		if v := reg.Counter("node.spend.reject." + reason).Value(); v != 0 {
			t.Fatalf("spurious %s rejections: %d", reason, v)
		}
	}
}
