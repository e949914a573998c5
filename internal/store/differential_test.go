package store

import (
	"math/rand"
	"reflect"
	"testing"

	"tokenmagic/internal/chain"
)

// TestDifferentialPersistentVsMemory drives identical random op streams
// into an in-memory ledger and a persistent one and asserts every
// observable — serialisation, tokens, txs, rings, batch partitions — is
// identical, both live and after a close/reopen cycle. This is the
// equivalence half of the proof battery: persistence must be semantically
// invisible.
func TestDifferentialPersistentVsMemory(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mem := chain.NewLedger()
		dir := t.TempDir()
		opts := testOpts(Options{
			SegmentBytes:  256 << (seed % 4),
			SnapshotEvery: uint64(10 * (seed % 3)), // 0, 10 or 20
			NoCompact:     seed%2 == 0,
		})
		st := openT(t, dir, opts)

		for _, op := range randomOps(rng, 120) {
			if merr := op(mem); merr != nil {
				t.Fatalf("seed %d: mem: %v", seed, merr)
			}
			if perr := op(st.Ledger); perr != nil {
				t.Fatalf("seed %d: persistent: %v", seed, perr)
			}
		}
		compareLedgers(t, mem, st.Ledger, rng)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		st2 := openT(t, dir, opts)
		compareLedgers(t, mem, st2.Ledger, rng)
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func compareLedgers(t *testing.T, mem, per *chain.Ledger, rng *rand.Rand) {
	t.Helper()
	if a, b := digestLedger(t, mem), digestLedger(t, per); a != b {
		t.Fatalf("serialisation differs: %s != %s", a, b)
	}
	if mem.Epoch() != per.Epoch() {
		t.Fatalf("epoch %d != %d", mem.Epoch(), per.Epoch())
	}
	if mem.NumTokens() != per.NumTokens() || mem.NumTxs() != per.NumTxs() ||
		mem.NumBlocks() != per.NumBlocks() || mem.NumRS() != per.NumRS() {
		t.Fatal("cardinality mismatch")
	}
	for i := 0; i < mem.NumTokens(); i++ {
		ta, ea := mem.Token(chain.TokenID(i))
		tb, eb := per.Token(chain.TokenID(i))
		if ea != nil || eb != nil || ta != tb {
			t.Fatalf("token %d differs: %+v vs %+v", i, ta, tb)
		}
	}
	if !reflect.DeepEqual(mem.Rings(), per.Rings()) {
		t.Fatal("RS registry differs")
	}
	// Batch partitions must agree for several λ.
	for trial := 0; trial < 3; trial++ {
		lambda := 1 + rng.Intn(8)
		ba, ea := chain.BuildBatches(mem, lambda)
		bb, eb := chain.BuildBatches(per, lambda)
		if ea != nil || eb != nil {
			t.Fatalf("λ=%d: %v / %v", lambda, ea, eb)
		}
		if ba.Len() != bb.Len() {
			t.Fatalf("λ=%d: %d batches vs %d", lambda, ba.Len(), bb.Len())
		}
		for i := 0; i < ba.Len(); i++ {
			x, _ := ba.Batch(i)
			y, _ := bb.Batch(i)
			if !reflect.DeepEqual(x, y) {
				t.Fatalf("λ=%d batch %d differs", lambda, i)
			}
		}
	}
}
