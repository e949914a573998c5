package selector

import (
	"context"
	"errors"
	"fmt"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/dtrs"
	"tokenmagic/internal/rsgraph"
)

// ExactProblem is a raw DA-MS instance for the exact BFS solver: no modular
// configuration, all three Definition-5 constraints checked by enumeration.
type ExactProblem struct {
	Target   chain.TokenID
	Universe chain.TokenSet
	// Rings is the related RS set over the universe, in proposal order, each
	// carrying its declared (c, ℓ) requirement for the immutability check.
	Rings  []chain.RingRecord
	Origin func(chain.TokenID) chain.TxID
	Req    diversity.Requirement
	// Enum caps the exponential enumerations; zero values use the rsgraph
	// defaults.
	Enum rsgraph.EnumOptions
}

// ErrExactTooLarge wraps rsgraph.ErrWorkCapExceeded with solver context.
var ErrExactTooLarge = errors.New("selector: exact search exceeded its work cap")

// bfsCancelStride is how many enumerated candidate sets pass between
// cancellation polls inside one frontier; the boundary between frontiers
// (ring sizes) is always checked.
const bfsCancelStride = 4096

// BFS finds a minimum-cardinality ring for the target satisfying all three
// DA-MS constraints, by trying candidate mixin sets in ascending size order
// (Algorithm 2). Exponential: use only on Figure-4-scale instances.
func BFS(p *ExactProblem) (Result, error) {
	return BFSCtx(context.Background(), p)
}

// BFSCtx is BFS with cooperative cancellation: the search checks ctx at
// every frontier boundary (each candidate ring size k) and every
// bfsCancelStride enumerated subsets within a frontier, so even the
// exponential inner loop abandons promptly.
func BFSCtx(ctx context.Context, p *ExactProblem) (Result, error) {
	if err := p.Req.Validate(); err != nil {
		return Result{}, err
	}
	if !p.Universe.Contains(p.Target) {
		return Result{}, fmt.Errorf("selector: target %v not in universe", p.Target)
	}
	sigma := p.Universe.Remove(p.Target) // candidate mixins
	iters := 0

	// Precompute every candidate's HT once and reuse one incremental
	// histogram across the enumeration: the diversity constraint is checked
	// allocation-free before any candidate ring is materialised or the
	// exponential DTRS machinery runs.
	hts := make([]chain.TxID, len(sigma))
	for i, t := range sigma {
		hts[i] = p.Origin(t)
	}
	targetHT := p.Origin(p.Target)
	h := diversity.NewHistogram()

	// Minimum mixin count: the ring needs ≥ ℓ distinct HTs, hence ≥ ℓ
	// tokens, hence ≥ ℓ−1 mixins (Algorithm 2 line 2).
	start := p.Req.L - 1
	if start < 1 {
		start = 1 // a ring of size 1 can never hide its token
	}
	for k := start; k <= len(sigma); k++ {
		if cancelled(ctx) {
			return Result{}, ctxErr(ctx) // frontier boundary
		}
		var found chain.TokenSet
		err := forEachIndexSubset(len(sigma), k, func(idx []int) (bool, error) {
			iters++
			if iters%bfsCancelStride == 0 && cancelled(ctx) {
				return false, ctxErr(ctx)
			}
			// Diversity pre-check (Algorithm 2 lines 6–8) on the index.
			h.Reset()
			h.Add(targetHT)
			for _, j := range idx {
				h.Add(hts[j])
			}
			if !h.Satisfies(p.Req) {
				return true, nil
			}
			mixins := make(chain.TokenSet, k)
			for i, j := range idx {
				mixins[i] = sigma[j]
			}
			rs := mixins.Add(p.Target)
			ok, err := eligible(p, rs)
			if err != nil {
				return false, err
			}
			if ok {
				found = rs
				return false, nil // stop: first hit at this size is minimal
			}
			return true, nil
		})
		if err != nil {
			return Result{}, err
		}
		if found != nil {
			return Result{Tokens: found, Modules: 0, Iterations: iters}, nil
		}
	}
	return Result{}, ErrNoEligible
}

// eligible checks the non-eliminated and immutability constraints for a
// candidate ring; the caller has already verified the diversity constraint
// on the incremental index.
func eligible(p *ExactProblem, rs chain.TokenSet) (bool, error) {
	// Build the instance: related rings plus the candidate (lines 5, 9).
	related := rsgraph.RelatedSet(p.Rings, rs)
	rings := make([]rsgraph.Ring, 0, len(related)+1)
	reqs := make([]diversity.Requirement, 0, len(related)+1)
	for _, r := range related {
		rings = append(rings, rsgraph.Ring{ID: r.ID, Tokens: r.Tokens})
		reqs = append(reqs, diversity.Requirement{C: r.C, L: r.L})
	}
	rings = append(rings, rsgraph.Ring{ID: chain.RSID(len(p.Rings)), Tokens: rs})
	reqs = append(reqs, p.Req)
	in := rsgraph.NewInstance(rings)

	// Non-eliminated constraint (lines 10–16): every token of every ring
	// must be a feasible consumed token.
	if !in.Decompose().AllAdmissible() {
		return false, nil
	}

	// Immutability + candidate DTRS diversity (lines 17–22): each ring's
	// DTRSs must satisfy that ring's declared requirement.
	for k := range rings {
		ok, err := dtrs.AllSatisfyExact(in, k, p.Origin, reqs[k], p.Enum)
		if err != nil {
			if errors.Is(err, rsgraph.ErrWorkCapExceeded) {
				return false, fmt.Errorf("%w: %v", ErrExactTooLarge, err)
			}
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// forEachIndexSubset enumerates size-k subsets of {0, …, n−1} in
// lexicographic order. The yielded slice is reused between calls; the
// callback must not retain it. It returns (continue, error).
func forEachIndexSubset(n, k int, f func([]int) (bool, error)) error {
	if k > n || k < 0 {
		return nil
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		cont, err := f(idx)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return nil
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
