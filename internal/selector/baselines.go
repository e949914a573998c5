package selector

import (
	"context"
	"math/rand"
)

// Smallest is the paper's TM_S baseline: repeatedly add the module with the
// smallest token count until the union's HT multiset satisfies the
// requirement.
func Smallest(p *Problem) (Result, error) {
	return SmallestCtx(context.Background(), p)
}

// SmallestCtx is Smallest with cooperative cancellation, polled once per
// greedy step. Every module holds at least one token (the ledger rejects
// empty rings and a fresh module is one token), so each scan stops at the
// first one-token module, which is the one a full scan returns.
func SmallestCtx(ctx context.Context, p *Problem) (Result, error) {
	st := newState(p)
	defer st.release()
	for !st.hist.Satisfies(p.Req) {
		if cancelled(ctx) {
			return Result{}, ctxErr(ctx)
		}
		st.iters++
		best := -1
		for i, m := range st.mods {
			if st.selected[i] {
				continue
			}
			if best == -1 || m.Size() < st.mods[best].Size() {
				best = i
				if m.Size() == 1 {
					break // no module is smaller: the ledger has no empty rings
				}
			}
		}
		if best == -1 {
			return Result{}, ErrNoEligible
		}
		st.add(best)
	}
	return st.result(), nil
}

// Random is the paper's TM_R baseline: repeatedly add a uniformly random
// unselected module until the union's HT multiset satisfies the requirement.
// rng must be non-nil so experiments stay reproducible.
func Random(p *Problem, rng *rand.Rand) (Result, error) {
	return RandomCtx(context.Background(), p, rng)
}

// RandomCtx is Random with cooperative cancellation, polled once per greedy
// step. The rng is consumed in a deterministic order regardless of
// cancellation timing: a cancelled solve simply stops drawing.
func RandomCtx(ctx context.Context, p *Problem, rng *rand.Rand) (Result, error) {
	st := newState(p)
	defer st.release()
	unselected := st.p.candidates()
	for !st.hist.Satisfies(p.Req) {
		if cancelled(ctx) {
			return Result{}, ctxErr(ctx)
		}
		st.iters++
		if len(unselected) == 0 {
			return Result{}, ErrNoEligible
		}
		k := rng.Intn(len(unselected))
		st.add(unselected[k])
		unselected[k] = unselected[len(unselected)-1]
		unselected = unselected[:len(unselected)-1]
	}
	return st.result(), nil
}
