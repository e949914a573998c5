package graphattack

import (
	"tokenmagic/internal/adversary"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/rsgraph"
)

// ForcedOptions bounds the forced-closure hypothesis sweep.
type ForcedOptions struct {
	// MaxPins caps the number of forced-assignment hypotheses evaluated
	// across the whole ledger (0 = DefaultMaxPins). When the cap trips, the
	// report carries Capped=true and the remaining hypotheses are skipped —
	// the reported anonymity is then an over-estimate, never an
	// under-estimate, so a CI gate reading it stays sound in the safe
	// direction (it can only fail spuriously, not pass wrongly).
	MaxPins int
}

// DefaultMaxPins bounds the hypothesis sweep: one DM decomposition per pin,
// each linear-ish, so the default allows ledgers well past bench scale.
const DefaultMaxPins = 1 << 14

func (o ForcedOptions) maxPins() int {
	if o.MaxPins > 0 {
		return o.MaxPins
	}
	return DefaultMaxPins
}

// ForcedClosure runs the partition/closure attack: split the ledger graph
// into connected components, then within each component force every
// DM-admissible (ring, token) assignment in turn — modelling the
// Definition-3 adversary buying exactly one true revealed pair — and re-run
// the decomposition under that hypothesis. Each ring's reported plausible
// set is its worst case over every hypothesis pinning ANOTHER ring (the
// pinned ring itself is trivially traced by the purchase, which measures
// nothing about the graph). The headline numbers are therefore the
// residual anonymity guaranteed even against a one-pair oracle, and
// WorstPin names the single most damaging purchase.
//
// Connected components make the sweep tractable and are themselves the
// partition attack: a pin only cascades inside its component, so each
// hypothesis re-decomposes one component, not the ledger.
func ForcedClosure(rings []chain.RingRecord, si adversary.SideInfo, origin func(chain.TokenID) chain.TxID, opts ForcedOptions) Report {
	pr := adversary.Pinned(rings, si)
	base := rsgraph.NewInstance(pr).Decompose()
	rep := Report{
		Attack:       "forced_closure",
		Degenerate:   !base.Saturated,
		SquareBlocks: base.SquareBlocks,
		UnderRings:   base.UnderRings(),
	}
	if !base.Saturated {
		// No combination at all: untouched sets, nothing proven, no
		// hypotheses to force.
		rep.Observations = observations(rings, base.Feasible(), origin)
		rep.Metrics = adversary.Summarise(adversary.Analysis{Observations: rep.Observations})
		return rep
	}

	// Worst-case sets start at the unconditional DM closure and only ever
	// shrink as hypotheses land.
	minSets := make([]chain.TokenSet, len(rings))
	copy(minSets, base.Feasible())

	groups := components(pr)
	rep.Components = len(groups)
	budget := opts.maxPins()

sweep:
	for _, group := range groups {
		if len(group) == 1 && len(base.Feasible()[group[0]]) < 2 {
			continue // singleton component already traced: no hypotheses
		}
		// Component sub-instance; hypotheses re-decompose only this slice.
		sub := make([]rsgraph.Ring, len(group))
		for k, ri := range group {
			sub[k] = pr[ri]
		}
		for k, ri := range group {
			feas := base.Feasible()[ri]
			if len(feas) < 2 {
				continue // already traced unconditionally; pinning it adds nothing
			}
			for _, tok := range feas {
				if rep.Pins >= budget {
					rep.Capped = true
					break sweep
				}
				rep.Pins++
				saved := sub[k].Tokens
				sub[k].Tokens = chain.NewTokenSet(tok)
				d := rsgraph.NewInstance(sub).Decompose()
				sub[k].Tokens = saved
				if !d.Saturated {
					// Cannot happen for a DM-admissible pin; skip defensively
					// rather than derive facts from a contradiction.
					continue
				}
				newly := 0
				for j, rj := range group {
					if rj == ri {
						continue
					}
					f := d.Feasible()[j]
					if len(f) < len(minSets[rj]) {
						minSets[rj] = f
					}
					if len(f) == 1 && len(base.Feasible()[rj]) > 1 {
						newly++
					}
				}
				if rep.WorstPin == nil || newly > rep.WorstPin.NewlyTraced {
					rep.WorstPin = &Pin{Ring: rings[ri].ID, Token: tok, NewlyTraced: newly}
				}
			}
		}
	}

	rep.Observations = observations(rings, minSets, origin)
	// Consumption facts stay unconditional: only the side-information-free
	// closure is proven; hypothesis-conditional consumption is not.
	rep.Consumed = base.ProvablyConsumed()
	rep.Metrics = adversary.Summarise(adversary.Analysis{Observations: rep.Observations, Consumed: rep.Consumed})
	return rep
}
