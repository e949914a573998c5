package node

// A node's hash-to-point memo starts empty and resolves each key the first
// time a ring uses it. The start-up warm-up it replaced survives here as
// warmHp, the oracle the on-demand memo is compared against.

import (
	"context"
	crand "crypto/rand"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/ringsig"
	itm "tokenmagic/internal/tokenmagic"
)

// warmHp resolves the hash-to-point of every key in keys into n's memo, as
// node start-up once did for Config.Keys.
func warmHp(n *Node, keys map[chain.TokenID]*ringsig.PrivateKey) {
	pubs := make([]ringsig.Point, 0, len(keys))
	for _, sk := range keys {
		pubs = append(pubs, sk.Public)
	}
	n.engine.Hp.Precompute(pubs)
}

// ringKeys returns the public keys of ring's members, in ring order.
func ringKeys(keys map[chain.TokenID]*ringsig.PrivateKey, ring chain.TokenSet) []ringsig.Point {
	pubs := make([]ringsig.Point, len(ring))
	for i, tok := range ring {
		pubs[i] = keys[tok].Public
	}
	return pubs
}

// distinctKeys counts the distinct public keys among rings' members.
func distinctKeys(keys map[chain.TokenID]*ringsig.PrivateKey, rings []chain.TokenSet) int {
	seen := map[string]bool{}
	for _, ring := range rings {
		for _, p := range ringKeys(keys, ring) {
			seen[string(p.Bytes())] = true
		}
	}
	return len(seen)
}

// TestHpMemoFillsOnFirstUse: New leaves the memo empty even with Keys;
// after k spends it holds exactly the distinct keys of the rings committed
// so far, never more than the minted keys.
func TestHpMemoFillsOnFirstUse(t *testing.T) {
	n, keys, _ := signedSpendNode(t, 12)
	if got := n.engine.Hp.Len(); got != 0 {
		t.Fatalf("New memoised %d keys, want none", got)
	}
	var rings []chain.TokenSet
	for _, target := range []chain.TokenID{0, 5, 9, 14} {
		res, err := n.Spend(context.Background(), target, diversity.Requirement{C: 1, L: 3})
		if err != nil {
			t.Fatal(err)
		}
		rings = append(rings, res.Ring)
		got, want := n.engine.Hp.Len(), distinctKeys(keys, rings)
		if got != want {
			t.Fatalf("after %d spends the memo holds %d keys, want the %d ring members'", len(rings), got, want)
		}
		if got > len(keys) {
			t.Fatalf("memo grew to %d keys past the %d minted", got, len(keys))
		}
	}
}

// TestHpMemoColdMatchesWarm: two nodes over the same chain, keys and
// Config.Rand seed, one with the memo warmed up front and one cold, commit
// the same rings with the same key images, and each node's engine accepts
// every signature the other made.
func TestHpMemoColdMatchesWarm(t *testing.T) {
	l, keys := testChain(t, 16)
	l2, _ := testChain(t, 16)
	newNode := func(l *chain.Ledger) *Node {
		t.Helper()
		n, err := New(l, Config{
			Framework: itm.Config{Lambda: 1000, Eta: 0.1, Headroom: true, Algorithm: itm.Progressive, Metrics: obs.NewRegistry()},
			Keys:      keys,
			Rand:      rand.New(rand.NewSource(11)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	cold, warm := newNode(l), newNode(l2)
	warmHp(warm, keys)
	req := diversity.Requirement{C: 1, L: 3}
	for _, target := range []chain.TokenID{0, 7, 12, 21, 30} {
		rc, err := cold.Spend(context.Background(), target, req)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := warm.Spend(context.Background(), target, req)
		if err != nil {
			t.Fatal(err)
		}
		if !rc.Ring.Equal(rw.Ring) || rc.RSID != rw.RSID {
			t.Fatalf("target %v: cold node committed %v as %v, warm node %v as %v", target, rc.Ring, rc.RSID, rw.Ring, rw.RSID)
		}
		if !rc.Signature.Image.Equal(rw.Signature.Image) {
			t.Fatalf("target %v: key images differ", target)
		}
		pubs, msg := ringKeys(keys, rc.Ring), Message(rc.Ring)
		if err := warm.engine.Verify(rc.Signature, pubs, msg); err != nil {
			t.Fatalf("target %v: the warm engine refuses the cold node's signature: %v", target, err)
		}
		if err := cold.engine.Verify(rw.Signature, pubs, msg); err != nil {
			t.Fatalf("target %v: the cold engine refuses the warm node's signature: %v", target, err)
		}
	}
}

// TestHpMemoConcurrentColdSpends: spends of different batches run in
// parallel on a cold memo, and the batches' tokens share keys (token j of
// every batch holds the same key), so concurrent spends miss on the same
// keys at once. Each target's key is its own, so no key image repeats.
// Every spend lands, its signature verifies, and the memo ends up holding
// exactly the distinct keys of the committed rings. Run under -race.
func TestHpMemoConcurrentColdSpends(t *testing.T) {
	const (
		batches  = 4
		perBatch = 16 // 8 two-output transactions, one block, one batch
		rounds   = 2
	)
	pool, err := ringsig.GenerateKeys(crand.Reader, perBatch)
	if err != nil {
		t.Fatal(err)
	}
	l := chain.NewLedger()
	keys := make(map[chain.TokenID]*ringsig.PrivateKey)
	for b := 0; b < batches; b++ {
		blk := l.BeginBlock()
		j := 0
		for i := 0; i < perBatch/2; i++ {
			txid, err := l.AddTx(blk, 2)
			if err != nil {
				t.Fatal(err)
			}
			tx, err := l.Tx(txid)
			if err != nil {
				t.Fatal(err)
			}
			for _, tok := range tx.Outputs {
				keys[tok] = pool[j]
				j++
			}
		}
	}
	n, err := New(l, Config{
		Framework: itm.Config{Lambda: perBatch, Eta: 0, Headroom: true, Algorithm: itm.Progressive, Metrics: obs.NewRegistry()},
		Keys:      keys,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := diversity.Requirement{C: 1, L: 3}
	results := make([][]SpendResult, batches)
	errs := make([]error, batches)
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Position b + r·batches of batch b: a key no other
				// target holds.
				target := chain.TokenID(b*perBatch + b + r*batches)
				res, err := n.Spend(context.Background(), target, req)
				if err != nil {
					errs[b] = fmt.Errorf("spend %v: %w", target, err)
					return
				}
				results[b] = append(results[b], res)
			}
		}(b)
	}
	wg.Wait()
	var rings []chain.TokenSet
	check := &ringsig.Engine{}
	for b, err := range errs {
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		for _, res := range results[b] {
			rings = append(rings, res.Ring)
			if err := check.Verify(res.Signature, ringKeys(keys, res.Ring), Message(res.Ring)); err != nil {
				t.Fatalf("ring %v: %v", res.Ring, err)
			}
		}
	}
	if got, want := n.engine.Hp.Len(), distinctKeys(keys, rings); got != want || got > perBatch {
		t.Fatalf("memo holds %d keys; the rings use %d, %d were minted", got, want, perBatch)
	}
}
