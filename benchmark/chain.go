package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/node"
	"tokenmagic/internal/ringsig"
)

// htSigma is the spread of the per-token historical-transaction labels,
// round(N(0, σ)) as in the paper's Table-3 synthetic generator.
const htSigma = 12

// chainShape sizes a synthetic all-fresh chain: blocks of lambda tokens
// each, so every block is exactly one TokenMagic batch.
type chainShape struct {
	lambda, blocks int
}

// layout is a minted chain's transaction structure: for each block, the
// output count of each of its transactions, in mint order.
type layout [][]int

// newLayout draws λ HT labels per block and groups equal labels of a block
// into one transaction, so a token's HT is its label within its block.
func newLayout(shape chainShape, seed int64) layout {
	rng := rand.New(rand.NewSource(seed))
	out := make(layout, shape.blocks)
	for b := range out {
		counts := make(map[int]int)
		for i := 0; i < shape.lambda; i++ {
			counts[int(math.Round(rng.NormFloat64()*htSigma))]++
		}
		labels := make([]int, 0, len(counts))
		for lab := range counts {
			labels = append(labels, lab)
		}
		sort.Ints(labels)
		for _, lab := range labels {
			out[b] = append(out[b], counts[lab])
		}
	}
	return out
}

// mint builds the all-fresh ledger the layout describes.
func (lay layout) mint() (*chain.Ledger, error) {
	l := chain.NewLedger()
	for _, txs := range lay {
		blk := l.BeginBlock()
		for _, n := range txs {
			if _, err := l.AddTx(blk, n); err != nil {
				return nil, err
			}
		}
	}
	return l, nil
}

// origin is the token→HT map the layout implies: tokens and transactions are
// numbered in mint order, exactly as the ledger numbers them.
func (lay layout) origin() func(chain.TokenID) chain.TxID {
	var of []chain.TxID
	tx := chain.TxID(0)
	for _, txs := range lay {
		for _, n := range txs {
			for i := 0; i < n; i++ {
				of = append(of, tx)
			}
			tx++
		}
	}
	return func(t chain.TokenID) chain.TxID {
		if t < 0 || int(t) >= len(of) {
			return chain.NoTx
		}
		return of[t]
	}
}

// population lists every minted token.
func (lay layout) population() chain.TokenSet {
	n := 0
	for _, txs := range lay {
		for _, k := range txs {
			n += k
		}
	}
	toks := make([]chain.TokenID, n)
	for i := range toks {
		toks[i] = chain.TokenID(i)
	}
	return chain.NewTokenSet(toks...)
}

// seededKeys gives every ledger token a keypair drawn from a seeded stream,
// so one seed fixes the whole input: chain, keys and spend order.
func seededKeys(led *chain.Ledger, seed int64) (map[chain.TokenID]*ringsig.PrivateKey, error) {
	return node.GenerateKeys(rand.New(rand.NewSource(seed^0x6b657973)), led)
}

// copyLedger replays a view's history into a fresh in-memory ledger.
func copyLedger(v *chain.View) (*chain.Ledger, error) {
	l := chain.NewLedger()
	for _, op := range v.Ops() {
		if err := l.Apply(op); err != nil {
			return nil, fmt.Errorf("copy ledger: %w", err)
		}
	}
	return l, nil
}
