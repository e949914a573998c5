package graphattack

import (
	"sort"

	"tokenmagic/internal/adversary"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/rsgraph"
)

// TemporalOptions configures the temporal side-information adversary.
type TemporalOptions struct {
	// Window applies the guess-newest behavioural prior: the consumed token
	// is assumed to lie among the Window newest members of each ring by
	// creation order. 0 disables the prior. The prior is side information
	// about user behaviour — NOT a sound graph fact — so it is intersected
	// with the DM admissible set and reverts to it when the intersection is
	// empty: the adversary's prior can narrow the graph but never
	// contradict it.
	Window int
	// Birth maps a token to its creation rank. Nil uses the dense TokenID
	// order, which IS creation order on this chain (the i-th token ever
	// created has TokenID(i)).
	Birth func(chain.TokenID) int
	// SpendTime maps a ring to its spend position on the same clock as
	// Birth. When set, candidates born after the spend are pruned as hard
	// facts BEFORE the decomposition — a token cannot be consumed before it
	// exists. Nil disables future-pruning; on ledgers whose append rule
	// already enforces token existence (this chain's does) the pruning is
	// vacuous, but imported or cross-batch views carry no such guarantee.
	SpendTime func(chain.RSID) int
}

func (o TemporalOptions) birth(t chain.TokenID) int {
	if o.Birth != nil {
		return o.Birth(t)
	}
	return int(t)
}

// Temporal runs the temporal side-information attack: sound future-pruning
// (tokens created after the spend cannot be its consumed token), the DM
// decomposition over the pruned graph, then the guess-newest window prior
// layered on the admissible sets. Layered on the SideInfo machinery: pins
// apply before every stage.
func Temporal(rings []chain.RingRecord, si adversary.SideInfo, origin func(chain.TokenID) chain.TxID, opts TemporalOptions) Report {
	pr := adversary.Pinned(rings, si)
	rep := Report{Attack: "temporal"}

	// Stage 1 — sound pruning: drop candidates born after the spend. A ring
	// whose every candidate postdates its own spend is a contradictory view
	// (broken clock side information); revert it rather than invent facts.
	work := make([]rsgraph.Ring, len(pr))
	copy(work, pr)
	if opts.SpendTime != nil {
		for i, r := range work {
			spend := opts.SpendTime(r.ID)
			kept := make(chain.TokenSet, 0, len(r.Tokens))
			for _, t := range r.Tokens {
				if opts.birth(t) <= spend {
					kept = append(kept, t)
				}
			}
			if len(kept) == 0 {
				rep.Reverted++
				continue
			}
			rep.Pruned += len(r.Tokens) - len(kept)
			work[i].Tokens = kept
		}
	}

	// Stage 2 — DM over the pruned graph. If pruning (or the side info)
	// left no token-RS combination, fall back to the unpruned pinned graph:
	// the temporal facts were inconsistent with the ledger, so only the
	// graph itself can be trusted.
	d := rsgraph.NewInstance(work).Decompose()
	if !d.Saturated {
		rep.Degenerate = true
		rep.Pruned, rep.Reverted = 0, len(rings)
		d = rsgraph.NewInstance(pr).Decompose()
	}
	rep.SquareBlocks = d.SquareBlocks
	rep.UnderRings = d.UnderRings()

	// Stage 3 — guess-newest prior over the PUBLISHED ring (the members an
	// outside observer sees), intersected with the admissible set; an empty
	// intersection means the graph already ruled out every "new" candidate,
	// the prior is wrong for this ring, and the attack reverts to the
	// admissible set.
	sets := make([]chain.TokenSet, len(rings))
	copy(sets, d.Feasible())
	if opts.Window > 0 {
		for i := range sets {
			ringToks := pr[i].Tokens
			if len(ringToks) <= opts.Window {
				continue // window covers the whole ring: prior prunes nothing
			}
			newest := newestWindow(ringToks, opts.Window, opts.birth)
			inter := sets[i].Intersect(newest)
			switch {
			case len(inter) == 0:
				rep.Reverted++
			case len(inter) < len(sets[i]):
				rep.Pruned += len(sets[i]) - len(inter)
				sets[i] = inter
			}
		}
	}

	rep.Observations = observations(rings, sets, origin)
	// Only stage-1/2 facts are sound; the window prior narrows suspicion
	// but proves no consumption, so the consumed set is the DM closure of
	// the pruned graph.
	if !rep.Degenerate {
		rep.Consumed = d.ProvablyConsumed()
	}
	rep.Metrics = adversary.Summarise(adversary.Analysis{Observations: rep.Observations, Consumed: rep.Consumed})
	return rep
}

// newestWindow returns the w newest tokens of set by birth rank (ties
// broken by TokenID, so the result is deterministic), as a TokenSet.
func newestWindow(set chain.TokenSet, w int, birth func(chain.TokenID) int) chain.TokenSet {
	byAge := set.Clone()
	sort.Slice(byAge, func(i, j int) bool {
		bi, bj := birth(byAge[i]), birth(byAge[j])
		if bi != bj {
			return bi > bj
		}
		return byAge[i] > byAge[j]
	})
	return chain.NewTokenSet(byAge[:w]...)
}
