package chain

import (
	"fmt"
	"slices"
)

// CheckPrefix verifies that v extends base: every block, transaction, token
// and ring of base must appear unchanged at the same position in v, with v
// free to hold more of each on top. A canonical rebuild of base (View.Ops
// replayed onto an empty ledger, as store.Seed does) satisfies this against
// the original, so a persistent data dir resumed alongside a freshly
// generated dataset can use it to refuse serving history that belongs to a
// different population.
func (v *View) CheckPrefix(base *View) error {
	if v.epoch < base.epoch {
		return fmt.Errorf("chain: view at epoch %d is behind base epoch %d", v.epoch, base.epoch)
	}
	if v.nblocks < base.nblocks || len(v.txs) < len(base.txs) ||
		len(v.tokens) < len(base.tokens) || len(v.rings) < len(base.rings) {
		return fmt.Errorf("chain: view (%d blocks, %d txs, %d tokens, %d rings) holds less than base (%d, %d, %d, %d)",
			v.nblocks, len(v.txs), len(v.tokens), len(v.rings),
			base.nblocks, len(base.txs), len(base.tokens), len(base.rings))
	}
	for i := range base.txs {
		got, want := v.txs[i], base.txs[i]
		if got.ID != want.ID || got.Block != want.Block || !slices.Equal(got.Outputs, want.Outputs) {
			return fmt.Errorf("chain: tx %d differs from base", want.ID)
		}
	}
	for i := range base.tokens {
		if v.tokens[i] != base.tokens[i] {
			return fmt.Errorf("chain: token %d differs from base", base.tokens[i].ID)
		}
	}
	for i := range base.rings {
		got, want := v.rings[i], base.rings[i]
		if got.ID != want.ID || got.Pos != want.Pos || got.C != want.C ||
			got.L != want.L || !slices.Equal(got.Tokens, want.Tokens) {
			return fmt.Errorf("chain: ring %d differs from base", want.ID)
		}
	}
	return nil
}
