package tokenmagic

// Concurrency soak: hammer one Framework from many goroutines — generators,
// committers, verifiers, stats readers — while the ledger keeps growing
// through UpdateLedger/RefreshBatches. The test asserts no invariant breaks
// (ReadStats tearing, rings missing their target); the race detector asserts
// memory safety (this file is on the CI -race list, selected with
// `go test -run Soak -race`). Iteration-bounded, not time-bounded, so a run
// is deterministic in the work it attempts.

import (
	"math/rand"
	"sync"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/store"
)

func TestSoakConcurrentFrameworkUnderRefresh(t *testing.T) {
	const (
		initialTx  = 20 // ×2 outputs = 40 tokens at t=0
		generators = 3
		verifiers  = 2
		iters      = 40 // per-goroutine operations
	)
	l := chain.NewLedger()
	blk := l.BeginBlock()
	for i := 0; i < initialTx; i++ {
		if _, err := l.AddTx(blk, 2); err != nil {
			t.Fatal(err)
		}
	}
	initialTokens := l.NumTokens()
	reg := obs.NewRegistry()
	f, err := New(l, Config{
		Lambda:      16,
		Eta:         0.1,
		Headroom:    true,
		Algorithm:   Progressive,
		Randomize:   true,
		Parallelism: 2,
		Metrics:     reg,
	}, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	req := diversity.Requirement{C: 1, L: 3}

	var wg sync.WaitGroup
	// Generators: spend attempts across the initial token range. Failures
	// (no eligible ring, batch drained) are expected outcomes, not bugs.
	for g := 0; g < generators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				target := chain.TokenID((g*iters + i) % initialTokens)
				res, err := f.GenerateRS(target, req)
				if err == nil && !res.Tokens.Contains(target) {
					t.Errorf("generator %d: ring %v misses target %d", g, res.Tokens, target)
					return
				}
			}
		}(g)
	}
	// Committer: full generate→verify→commit cycles racing the generators.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			target := chain.TokenID((i * 5) % initialTokens)
			if _, _, err := f.GenerateAndCommit(target, req); err == nil {
				continue
			}
			// Rejected spends (double spends, η guard) are expected.
		}
	}()
	// Verifiers: VerifyRS on deliberately bad rings plus ReadStats invariant
	// checks; the snapshot must never tear (SolveFailures ≤ Solves, and
	// classified rejects ≤ verify outcomes seen so far).
	for v := 0; v < verifiers; v++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_ = f.VerifyRS(chain.NewTokenSet(chain.TokenID(i%initialTokens)), req)
				s := ReadStats(reg)
				if s.SolveFailures > s.Solves {
					t.Errorf("torn Stats snapshot: failures %d > solves %d", s.SolveFailures, s.Solves)
					return
				}
				if s.Rejects() < 0 || s.VerifyAdmits < 0 {
					t.Errorf("negative verify counters: %+v", s)
					return
				}
			}
		}()
	}
	// Growth: mint new transactions and rebuild the batch partition while
	// everything above is in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			err := f.UpdateLedger(func(l *chain.Ledger) error {
				b := l.BeginBlock()
				_, err := l.AddTx(b, 2)
				return err
			})
			if err != nil {
				t.Errorf("UpdateLedger: %v", err)
				return
			}
			if err := f.RefreshBatches(); err != nil {
				t.Errorf("RefreshBatches: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// Post-conditions: every committed ring still verifies against the final
	// chain state, and the telemetry is consistent.
	for _, r := range l.Rings() {
		if len(r.Tokens) == 0 {
			t.Fatalf("empty ring %v committed", r.ID)
		}
	}
	s := ReadStats(reg)
	if s.SolveFailures > s.Solves {
		t.Fatalf("final Stats torn: %+v", s)
	}
	if s.VerifyAdmits < int64(l.NumRS()) {
		t.Fatalf("%d rings on chain but only %d verify admits", l.NumRS(), s.VerifyAdmits)
	}
}

// TestSoakEpochPinnedReadersVsSnapshotter exercises the storage-backed
// stack end to end under the race detector: epoch-pinning readers
// (GenerateRS/VerifyRS), a committing writer journaling to a sharded log,
// and a snapshotter persisting pinned views — all concurrent. Asserts the
// framework epoch only moves forward, every generated ring contains its
// target, and the durable state reopens to exactly the live ledger.
func TestSoakEpochPinnedReadersVsSnapshotter(t *testing.T) {
	const (
		initialTx = 16 // ×2 outputs = 32 tokens
		readers   = 3
		iters     = 40
	)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{
		Shards: 2, Lambda: 8, SegmentBytes: 4096, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	blk := st.Ledger.BeginBlock()
	for i := 0; i < initialTx; i++ {
		if _, err := st.Ledger.AddTx(blk, 2); err != nil {
			t.Fatal(err)
		}
	}
	initialTokens := st.Ledger.NumTokens()
	f, err := New(st.Ledger, Config{
		Lambda:      8,
		Eta:         0.1,
		Headroom:    true,
		Algorithm:   Progressive,
		Randomize:   true,
		Parallelism: 2,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	req := diversity.Requirement{C: 1, L: 3}

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := uint64(0)
			for i := 0; i < iters; i++ {
				if ep := f.Epoch(); ep < last {
					t.Errorf("reader %d: epoch went backwards %d → %d", r, last, ep)
					return
				} else {
					last = ep
				}
				target := chain.TokenID((r*iters + i) % initialTokens)
				if res, gerr := f.GenerateRS(target, req); gerr == nil && !res.Tokens.Contains(target) {
					t.Errorf("reader %d: ring %v misses target %d", r, res.Tokens, target)
					return
				}
				_ = f.VerifyRS(chain.NewTokenSet(target), req)
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			target := chain.TokenID((i * 3) % initialTokens)
			_, _, _ = f.GenerateAndCommit(target, req) // rejects are expected
		}
	}()
	// Snapshotter: persist a pinned view while commits keep appending.
	// Snapshot never blocks readers or the committer's journal appends.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if serr := st.Log.Snapshot(st.Ledger.View()); serr != nil {
				t.Errorf("snapshot: %v", serr)
				return
			}
		}
	}()
	wg.Wait()

	want, err := store.Digest(st.Ledger.View())
	if err != nil {
		t.Fatal(err)
	}
	wantEpoch := st.Ledger.Epoch()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{
		Shards: 2, Lambda: 8, SegmentBytes: 4096, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := st2.Close(); cerr != nil {
			t.Fatal(cerr)
		}
	}()
	if st2.Info.Epoch != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", st2.Info.Epoch, wantEpoch)
	}
	got, err := store.Digest(st2.Ledger.View())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("durable state diverged from live ledger: %s != %s", got, want)
	}
}
