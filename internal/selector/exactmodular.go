package selector

import (
	"errors"

	"tokenmagic/internal/diversity"
)

// ExactModular finds the true minimum-cardinality module union for a
// Problem by exhaustive subset search over the candidate modules. It is the
// OPT of Theorems 6.5 and 6.7 — exact over the *modular* solution space the
// practical configurations induce (the raw-token optimum of Algorithm 2 can
// be smaller, but is not reachable under the configurations).
//
// Complexity is O(2^n) over n candidate modules, so the search refuses
// instances beyond maxModules (default 20). Use it as the quality oracle in
// experiments; production selection uses Progressive or Game.
func ExactModular(p *Problem, maxModules int) (Result, error) {
	if err := p.Req.Validate(); err != nil {
		return Result{}, err
	}
	if maxModules <= 0 {
		maxModules = 20
	}
	mods := p.tab.mods
	cands := p.candidates()
	n := len(cands)
	if n > maxModules {
		return Result{}, ErrModularTooLarge
	}

	best := Result{}
	found := false
	iters := 0
	for mask := 0; mask < 1<<n; mask++ {
		iters++
		tokens := mods[p.mand].Tokens
		modules := 1
		for i, c := range cands {
			if mask&(1<<i) != 0 {
				tokens = tokens.Union(mods[c].Tokens)
				modules++
			}
		}
		if found && len(tokens) >= best.Size() {
			continue
		}
		if !diversity.SatisfiesTokens(tokens, p.Origin, p.Req) {
			continue
		}
		best = Result{Tokens: tokens, Modules: modules}
		found = true
	}
	best.Iterations = iters
	if !found {
		return Result{}, ErrNoEligible
	}
	return best, nil
}

// ErrModularTooLarge reports an instance beyond the exact search's cap.
var ErrModularTooLarge = errors.New("selector: too many modules for exact search")
