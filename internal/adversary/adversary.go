// Package adversary implements the attacks the paper defends against, so
// defences can be evaluated empirically:
//
//   - Chain-reaction analysis: exploiting the fact that each token is
//     consumed in exactly one ring signature to eliminate mixins. The exact
//     analysis (ChainReaction) uses bipartite-matching feasibility: token t
//     is eliminated from ring r iff no complete token-RS combination lets r
//     consume t, and t is provably consumed iff banning t everywhere makes
//     the ledger infeasible — the exact closure that the paper's
//     Theorem-4.1 cascade approximates. The cascade itself is also provided
//     (Cascade) as the cheap heuristic real attackers run.
//   - Homogeneity attack: even when the consumed token is ambiguous, if a
//     ring's surviving candidates all come from one historical transaction,
//     the ring's HT is revealed.
//   - Side information: an adversary seeded with revealed token-RS pairs
//     (Definition 3) runs the same analyses with rings pinned.
//
// The package also provides anonymity metrics for the experiment harness.
package adversary

import (
	"tokenmagic/internal/chain"
	"tokenmagic/internal/rsgraph"
)

// Observation is the adversary's view of one ring: which of its tokens are
// still plausible consumed tokens after analysis.
type Observation struct {
	Ring      chain.RSID
	Remaining chain.TokenSet // plausible consumed tokens (⊆ original ring)
	Traced    bool           // exactly one plausible token remains
	HTKnown   bool           // all plausible tokens share one HT
	HT        chain.TxID     // the revealed HT when HTKnown
}

// SideInfo is a set of revealed token-RS pairs (SI^# of Definition 3).
type SideInfo map[chain.RSID]chain.TokenID

// Analysis is the result of running chain-reaction analysis on a set of
// rings.
type Analysis struct {
	Observations []Observation
	// Consumed is the set of tokens proven consumed.
	Consumed chain.TokenSet
}

// Pinned applies side information: rings with a revealed pair collapse to a
// single plausible token. Pairs naming tokens outside the ring are ignored.
func Pinned(rings []chain.RingRecord, si SideInfo) []rsgraph.Ring {
	out := make([]rsgraph.Ring, len(rings))
	for i, r := range rings {
		toks := r.Tokens
		if tok, ok := si[r.ID]; ok && r.Tokens.Contains(tok) {
			toks = chain.NewTokenSet(tok)
		}
		out[i] = rsgraph.Ring{ID: r.ID, Tokens: toks}
	}
	return out
}

// ChainReaction runs the exact, matching-based chain-reaction analysis:
// polynomial time, strictly stronger than the greedy cascade. If the pinned
// instance is infeasible (inconsistent side information or a degenerate
// ledger), the original token sets are reported untouched — an adversary
// cannot derive sound facts from a contradictory view.
func ChainReaction(rings []chain.RingRecord, si SideInfo, origin func(chain.TokenID) chain.TxID) Analysis {
	in := rsgraph.NewInstance(Pinned(rings, si))
	out := Analysis{Observations: make([]Observation, len(rings))}

	if !in.HasAssignment() {
		for i, r := range rings {
			out.Observations[i] = Observe(r.ID, in.Rings[i].Tokens, origin)
		}
		return out
	}
	feas := in.FeasibleSpent()
	for i, r := range rings {
		out.Observations[i] = Observe(r.ID, feas[i], origin)
	}
	out.Consumed = in.ProvablyConsumed()
	return out
}

// Cascade runs the paper-faithful greedy Theorem-4.1 cascade: repeatedly
// find collections of rings whose plausible-token union has the same
// cardinality as the collection, mark that union consumed, and remove those
// tokens from every ring outside the collection. Weaker than ChainReaction
// but linear-ish; used for the heuristic-vs-exact ablation.
func Cascade(rings []chain.RingRecord, si SideInfo, origin func(chain.TokenID) chain.TxID) Analysis {
	pinned := Pinned(rings, si)
	remaining := make([]chain.TokenSet, len(pinned))
	for i, r := range pinned {
		remaining[i] = r.Tokens.Clone()
	}
	var consumed chain.TokenSet

	for changed := true; changed; {
		changed = false
		for seed := range remaining {
			if len(remaining[seed]) == 0 {
				continue
			}
			members, union := closure(remaining, seed)
			if countMembers(members) != len(union) {
				continue
			}
			// Closed set: union is consumed by exactly these rings.
			if grew := consumed.Union(union); len(grew) != len(consumed) {
				consumed = grew
				changed = true
			}
			for j := range remaining {
				if members[j] || len(remaining[j]) == 0 {
					continue
				}
				filtered := remaining[j].Minus(union)
				if len(filtered) == 0 {
					continue // contradictory view; do not invent facts
				}
				if len(filtered) != len(remaining[j]) {
					remaining[j] = filtered
					changed = true
				}
			}
		}
	}

	out := Analysis{Observations: make([]Observation, len(rings)), Consumed: consumed}
	for i, r := range rings {
		out.Observations[i] = Observe(r.ID, remaining[i], origin)
	}
	return out
}

// closure grows a candidate closed set from seed: absorb any ring fully
// contained in the running union; when stuck and still short of closure,
// absorb the overlapping ring adding the fewest new tokens. Returns the
// membership mask and the union.
func closure(remaining []chain.TokenSet, seed int) ([]bool, chain.TokenSet) {
	members := make([]bool, len(remaining))
	members[seed] = true
	union := remaining[seed].Clone()
	count := 1
	for {
		added := false
		for j := range remaining {
			if members[j] || len(remaining[j]) == 0 {
				continue
			}
			if remaining[j].SubsetOf(union) {
				members[j] = true
				count++
				added = true
			}
		}
		if count == len(union) {
			return members, union
		}
		if added {
			continue
		}
		best, bestNew := -1, -1
		for j := range remaining {
			if members[j] || len(remaining[j]) == 0 || remaining[j].Disjoint(union) {
				continue
			}
			if n := len(remaining[j].Minus(union)); best == -1 || n < bestNew {
				best, bestNew = j, n
			}
		}
		if best == -1 {
			return members, union // no closed set reachable from seed
		}
		members[best] = true
		count++
		union = union.Union(remaining[best])
	}
}

func countMembers(members []bool) int {
	n := 0
	for _, m := range members {
		if m {
			n++
		}
	}
	return n
}

// Observe derives one ring's Observation from its surviving plausible-token
// set: traced iff a single token remains, HT revealed iff all survivors
// share one historical transaction. Exported for the graph-analysis attack
// suite (graphattack), which derives survivor sets by other means.
func Observe(id chain.RSID, remaining chain.TokenSet, origin func(chain.TokenID) chain.TxID) Observation {
	obs := Observation{Ring: id, Remaining: remaining}
	obs.Traced = len(remaining) == 1
	if len(remaining) > 0 {
		ht := origin(remaining[0])
		same := true
		for _, tok := range remaining[1:] {
			if origin(tok) != ht {
				same = false
				break
			}
		}
		if same {
			obs.HTKnown, obs.HT = true, ht
		}
	}
	return obs
}

// SideInfoThreshold returns the Theorem-6.2 bound for a ring: an adversary
// whose side information holds fewer than |r| − q_M revealed token-RS pairs
// cannot confirm the historical transaction of the ring's consumed token,
// where q_M is the multiplicity of the ring's most frequent HT. Users can
// raise the threshold, at fixed ring size, by flattening the HT histogram —
// exactly what recursive (c, ℓ)-diversity enforces.
func SideInfoThreshold(ring chain.TokenSet, origin func(chain.TokenID) chain.TxID) int {
	counts := make(map[chain.TxID]int)
	qM := 0
	for _, t := range ring {
		counts[origin(t)]++
		if counts[origin(t)] > qM {
			qM = counts[origin(t)]
		}
	}
	return len(ring) - qM
}

// Metrics summarises an analysis for the experiment harness.
type Metrics struct {
	Rings          int
	Traced         int     // rings with exactly one plausible token
	HTRevealed     int     // rings whose HT is determined (homogeneity)
	AvgAnonymity   float64 // mean plausible-set size
	MinAnonymity   int     // smallest plausible-set size over all rings (0 when no rings)
	ConsumedTokens int
}

// Summarise computes metrics over an analysis.
func Summarise(a Analysis) Metrics {
	m := Metrics{Rings: len(a.Observations), ConsumedTokens: len(a.Consumed)}
	total := 0
	for _, o := range a.Observations {
		if o.Traced {
			m.Traced++
		}
		if o.HTKnown {
			m.HTRevealed++
		}
		total += len(o.Remaining)
		if m.MinAnonymity == 0 || len(o.Remaining) < m.MinAnonymity {
			m.MinAnonymity = len(o.Remaining)
		}
	}
	if m.Rings > 0 {
		m.AvgAnonymity = float64(total) / float64(m.Rings)
	}
	return m
}
