package tokenmagic

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
)

// DeriveSeed must behave as a pure, collision-averse stream splitter: stable
// across calls, and distinct over candidate indices, the reserved tags and
// the replay range for one request seed.
func TestDeriveSeedStreams(t *testing.T) {
	const seed = int64(0x5eed)
	if DeriveSeed(seed, 7) != DeriveSeed(seed, 7) {
		t.Fatal("DeriveSeed is not a pure function")
	}
	seen := map[int64]uint64{}
	streams := []uint64{pickStream, soloStream, ReplayStreamBase, ReplayStreamBase + 1}
	for i := uint64(0); i < 1000; i++ {
		streams = append(streams, i)
	}
	for _, s := range streams {
		d := DeriveSeed(seed, s)
		if prev, dup := seen[d]; dup {
			t.Fatalf("streams %d and %d collide on %d", prev, s, d)
		}
		seen[d] = s
	}
	if DeriveSeed(seed, 0) == DeriveSeed(seed+1, 0) {
		t.Fatal("different request seeds derive the same stream seed")
	}
}

// A pre-cancelled context must stop generation before any solve runs and
// surface context.Canceled.
func TestGenerateRSContextPreCancelled(t *testing.T) {
	l := samplingLedger(t, 10)
	reg := obs.NewRegistry()
	f, err := New(l, Config{Lambda: 100, Headroom: true, Algorithm: Progressive, Randomize: true, Metrics: reg}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.GenerateRSContext(ctx, 3, diversity.Requirement{C: 1, L: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if s := ReadStats(reg); s.Solves != 0 {
		t.Fatalf("cancelled request still dispatched %d solves", s.Solves)
	}
}

// StopAfter must pick from the deterministic prefix: the sequential and
// parallel executors agree, and the prefix semantics match an explicit
// sequential scan (first satisfying candidate in batch-token order when
// StopAfter=1).
func TestStopAfterDeterministicPrefix(t *testing.T) {
	l := samplingLedger(t, 14)
	req := diversity.Requirement{C: 1, L: 3}
	mk := func(workers, stopAfter int) *Framework {
		f, err := New(l, Config{
			Lambda: 100, Headroom: true, Algorithm: Progressive,
			Randomize: true, Parallelism: workers, StopAfter: stopAfter,
		}, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	const seed = 77
	seq, err := mk(1, 1).GenerateRSSeeded(context.Background(), 5, req, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := mk(workers, 1).GenerateRSSeeded(context.Background(), 5, req, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !seq.Tokens.Equal(par.Tokens) {
			t.Fatalf("StopAfter=1 w=%d diverged: %v vs %v", workers, seq.Tokens, par.Tokens)
		}
	}
	// With a single satisfying prefix candidate the pick is forced, so the
	// full run's candidate list must start with the StopAfter=1 ring.
	full := mk(1, 0)
	universe, err := full.Batches().Universe(5)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := full.sampleCandidates(context.Background(), full.epoch.Load(), universe, 5, req, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 || !cands[0].Tokens.Equal(seq.Tokens) {
		t.Fatalf("StopAfter=1 ring %v is not the first full-run candidate", seq.Tokens)
	}
}

// UpdateLedger must atomically grow the chain and the batch partition:
// tokens minted through it become spendable without rebuilding the
// framework.
func TestUpdateLedgerExtendsSpendableRange(t *testing.T) {
	l := samplingLedger(t, 6) // 12 tokens
	f, err := New(l, Config{Lambda: 12, Headroom: true, Algorithm: Progressive, Randomize: true}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	newTok := chain.TokenID(l.NumTokens())
	req := diversity.Requirement{C: 1, L: 3}
	if _, err := f.GenerateRS(newTok, req); err == nil {
		t.Fatal("unminted token unexpectedly spendable")
	}
	err = f.UpdateLedger(func(l *chain.Ledger) error {
		b := l.BeginBlock()
		for i := 0; i < 6; i++ {
			if _, err := l.AddTx(b, 2); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.GenerateRS(newTok, req)
	if err != nil {
		t.Fatalf("token minted via UpdateLedger not spendable: %v", err)
	}
	if !res.Tokens.Contains(newTok) {
		t.Fatalf("ring %v misses new token %d", res.Tokens, newTok)
	}
}

// Parallelism=0 must resolve to the machine's GOMAXPROCS and still produce
// the sequential executor's ring (default-config determinism).
func TestDefaultParallelismMatchesSequential(t *testing.T) {
	l := samplingLedger(t, 12)
	req := diversity.Requirement{C: 1, L: 3}
	mk := func(workers int) *Framework {
		f, err := New(l, Config{Lambda: 100, Headroom: true, Algorithm: Game, Randomize: true, Parallelism: workers},
			rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	const seed = 41
	a, errA := mk(1).GenerateRSSeeded(context.Background(), 2, req, seed)
	b, errB := mk(0).GenerateRSSeeded(context.Background(), 2, req, seed)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("err mismatch: %v vs %v", errA, errB)
	}
	if errA == nil && !a.Tokens.Equal(b.Tokens) {
		t.Fatalf("default parallelism diverged: %v vs %v", a.Tokens, b.Tokens)
	}
}
