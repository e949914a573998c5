package tokenmagic

// Framework-level differential battery: the same seeded request stream —
// spends (generate→commit), ledger growth, catch-up reads — driven into a
// framework over an in-memory ledger and one over a store-backed ledger
// must produce identical observations at every step: the same rings, the
// same commit outcomes, the same batch partition, the same serialised
// chain. Then the persistent side is crashed (closed) and recovered, a new
// framework is built over the recovered ledger, and the comparison repeats.
// Persistence must be semantically invisible to the TokenMagic layer.

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/store"
)

func diffConfig() Config {
	return Config{
		Lambda:    8,
		Eta:       0.1,
		Headroom:  true,
		Algorithm: Progressive,
		Randomize: true,
		Metrics:   obs.NewRegistry(),
	}
}

func seedTokens(t *testing.T, l *chain.Ledger, txs int) {
	t.Helper()
	b := l.BeginBlock()
	for i := 0; i < txs; i++ {
		if _, err := l.AddTx(b, 2); err != nil {
			t.Fatal(err)
		}
	}
}

// compareFrameworks checks every observation surface the node layer reads.
func compareFrameworks(t *testing.T, mem, per *Framework, memLed, perLed *chain.Ledger) {
	t.Helper()
	dm, err := store.Digest(memLed.View())
	if err != nil {
		t.Fatal(err)
	}
	dp, err := store.Digest(perLed.View())
	if err != nil {
		t.Fatal(err)
	}
	if dm != dp {
		t.Fatalf("chain serialisation diverged: %s != %s", dm, dp)
	}
	if !reflect.DeepEqual(memLed.Rings(), perLed.Rings()) {
		t.Fatal("RS registry diverged")
	}
	_, bm, err := mem.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	_, bp, err := per.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if bm.Len() != bp.Len() {
		t.Fatalf("batch count diverged: %d != %d", bm.Len(), bp.Len())
	}
	for i := 0; i < bm.Len(); i++ {
		x, _ := bm.Batch(i)
		y, _ := bp.Batch(i)
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("batch %d diverged", i)
		}
	}
}

func TestDifferentialFrameworkPersistentVsMemory(t *testing.T) {
	req := diversity.Requirement{C: 1, L: 3}
	ctx := context.Background()
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))

		memLed := chain.NewLedger()
		seedTokens(t, memLed, 12)
		dir := t.TempDir()
		opts := store.Options{SegmentBytes: 2048, SnapshotEvery: 16, Metrics: obs.NewRegistry()}
		st, err := store.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		seedTokens(t, st.Ledger, 12)

		mem, err := New(memLed, diffConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		per, err := New(st.Ledger, diffConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}

		for i := 0; i < 60; i++ {
			switch r := rng.Intn(10); {
			case r < 6:
				target := chain.TokenID(rng.Intn(memLed.NumTokens()))
				reqSeed := rng.Int63()
				rm, em := mem.GenerateRSSeeded(ctx, target, req, reqSeed)
				rp, ep := per.GenerateRSSeeded(ctx, target, req, reqSeed)
				if (em == nil) != (ep == nil) {
					t.Fatalf("seed %d op %d: generate outcome diverged: %v vs %v", seed, i, em, ep)
				}
				if em != nil {
					if em.Error() != ep.Error() {
						t.Fatalf("seed %d op %d: generate errors diverged: %v vs %v", seed, i, em, ep)
					}
					continue
				}
				if !rm.Tokens.Equal(rp.Tokens) {
					t.Fatalf("seed %d op %d: rings diverged: %v vs %v", seed, i, rm.Tokens, rp.Tokens)
				}
				im, cm := mem.Commit(rm.Tokens, req)
				ip, cp := per.Commit(rp.Tokens, req)
				if (cm == nil) != (cp == nil) || im != ip {
					t.Fatalf("seed %d op %d: commit diverged: (%v,%v) vs (%v,%v)", seed, i, im, cm, ip, cp)
				}
			case r < 8:
				for _, l := range []*chain.Ledger{memLed, st.Ledger} {
					if _, gerr := l.AddTx(l.BeginBlock(), 2); gerr != nil {
						t.Fatal(gerr)
					}
				}
			default:
				// A catch-up read: both frameworks publish an epoch over
				// their grown ledgers, and the snapshots must agree.
				vm, bm, err := mem.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				vp, bp, err := per.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if vm.Epoch() != vp.Epoch() || !reflect.DeepEqual(bm, bp) {
					t.Fatalf("seed %d op %d: snapshots diverged at epochs %d and %d", seed, i, vm.Epoch(), vp.Epoch())
				}
			}
		}
		compareFrameworks(t, mem, per, memLed, st.Ledger)

		// Crash-and-recover the persistent side; a fresh framework over the
		// recovered ledger must be indistinguishable from the in-memory one.
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		opts.Metrics = obs.NewRegistry()
		st2, err := store.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		per2, err := New(st2.Ledger, diffConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		compareFrameworks(t, mem, per2, memLed, st2.Ledger)

		// Spot-check the verifier surface on the recovered state: the same
		// proposals must classify identically.
		for trial := 0; trial < 10; trial++ {
			k := 1 + rng.Intn(3)
			var toks []chain.TokenID
			for len(toks) < k {
				toks = append(toks, chain.TokenID(rng.Intn(memLed.NumTokens())))
			}
			prop := chain.NewTokenSet(toks...)
			vm := mem.VerifyRS(prop, req)
			vp := per2.VerifyRS(prop, req)
			if (vm == nil) != (vp == nil) {
				t.Fatalf("seed %d: verify diverged on %v: %v vs %v", seed, prop, vm, vp)
			}
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
