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

// StopAfter must pick from the deterministic prefix: the sweep agrees with
// the per-token oracle, and the prefix semantics match an explicit
// sequential scan (first satisfying candidate in batch-token order when
// StopAfter=1).
func TestStopAfterDeterministicPrefix(t *testing.T) {
	l := samplingLedger(t, 14)
	req := diversity.Requirement{C: 1, L: 3}
	mk := func(stopAfter int) *Framework {
		f, err := New(l, Config{
			Lambda: 100, Headroom: true, Algorithm: Progressive,
			Randomize: true, StopAfter: stopAfter,
		}, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	const seed = 77
	first := mk(1)
	seq, err := first.GenerateRSSeeded(context.Background(), 5, req, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, want, _, _, _ := sweepPair(t, first, 5, req, seed)
	assertSameSweep(t, "StopAfter=1", first, 5, req, seed, got, want)
	// With a single satisfying prefix candidate the pick is forced, so the
	// full run's candidate list must start with the StopAfter=1 ring.
	full := mk(0)
	b, err := full.Batches().BatchOf(5)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := full.sampleCandidates(context.Background(), full.newSweep(full.epoch.Load(), b, 5, req, seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 || !cands[0].Tokens.Equal(seq.Tokens) {
		t.Fatalf("StopAfter=1 ring %v is not the first full-run candidate", seq.Tokens)
	}
}

// Tokens minted straight into the ledger become spendable without rebuilding
// the framework: the next read catches the epoch up with the grown chain.
func TestLedgerGrowthExtendsSpendableRange(t *testing.T) {
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
	b := l.BeginBlock()
	for i := 0; i < 6; i++ {
		if _, err := l.AddTx(b, 2); err != nil {
			t.Fatal(err)
		}
	}
	res, err := f.GenerateRS(newTok, req)
	if err != nil {
		t.Fatalf("token minted into the ledger not spendable: %v", err)
	}
	if !res.Tokens.Contains(newTok) {
		t.Fatalf("ring %v misses new token %d", res.Tokens, newTok)
	}
}

// A commit racing direct ledger appends must not publish its new ring over
// the old batch list: when another op lands between the commit's check and
// its append, the commit rebuilds the epoch it publishes, so every token of
// the published view has a batch. A grower appends throughout each commit;
// the rounds repeat because only some of them land an append in that window.
func TestCommitRacingLedgerGrowthKeepsBatchesWhole(t *testing.T) {
	req := diversity.Requirement{C: 1, L: 3}
	for round := 0; round < 200; round++ {
		l := samplingLedger(t, 6)
		f, err := New(l, Config{Lambda: 1 << 20, Headroom: true, Algorithm: Progressive, Metrics: obs.NewRegistry()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.GenerateRS(0, req)
		if err != nil {
			t.Fatal(err)
		}
		stop, running, done := make(chan struct{}), make(chan struct{}), make(chan error)
		go func() {
			close(running)
			for {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				if _, err := l.AddTx(0, 2); err != nil {
					done <- err
					return
				}
			}
		}()
		<-running
		_, cerr := f.Commit(res.Tokens, req)
		// Commit's own publication, before any reader could catch it up.
		e := f.epoch.Load()
		close(stop)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if cerr != nil {
			t.Fatal(cerr)
		}
		if _, err := e.batches.BatchOf(chain.TokenID(e.view.NumTokens() - 1)); err != nil {
			t.Fatalf("round %d: commit published a batch list without its view's last token: %v", round, err)
		}
	}
}
