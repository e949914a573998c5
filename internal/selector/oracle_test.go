package selector

// The per-target problem construction the module Table replaced, kept as
// the Table's differential oracle: TestTableMatchesOracle and
// FuzzTableEquivalence require Table.Problem to solve exactly like it, and
// the pre-engine solver re-implementations read its candidate list.

import (
	"fmt"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
)

// oracleProblem locates the module containing target among supers and
// fresh and builds a private table for that one target: the mandatory
// module first, then every other module in decomposition order (super
// rings, then fresh tokens), each copied and footprinted again. It returns
// the Problem over that table and the candidate modules, that table minus
// its first entry. It fails for an invalid requirement, a target outside
// the decomposition, and a target that two modules hold.
func oracleProblem(target chain.TokenID, supers []Super, fresh chain.TokenSet, origin func(chain.TokenID) chain.TxID, req diversity.Requirement) (*Problem, []Module, error) {
	if err := req.Validate(); err != nil {
		return nil, nil, err
	}
	var mand Module
	var cands []Module
	found := false
	for _, s := range supers {
		m := Module{Tokens: s.Ring.Tokens, Super: s.Ring.ID}
		if s.Ring.Tokens.Contains(target) {
			if found {
				return nil, nil, fmt.Errorf("selector: target %v in multiple super rings (configuration violated)", target)
			}
			mand = m
			found = true
			continue
		}
		cands = append(cands, m)
	}
	for _, t := range fresh {
		m := Module{Tokens: chain.NewTokenSet(t), Fresh: true}
		if t == target {
			if found {
				return nil, nil, fmt.Errorf("selector: target %v is both fresh and in a super ring", target)
			}
			mand = m
			found = true
			continue
		}
		cands = append(cands, m)
	}
	if !found {
		return nil, nil, fmt.Errorf("selector: target %v not in universe", target)
	}
	mods := append([]Module{mand}, cands...)
	tab := &Table{mods: mods, fp: footprintsOf(mods, origin), origin: origin}
	return &Problem{Target: target, Mandatory: mand, Origin: origin, Req: req, tab: tab, mand: 0}, cands, nil
}
