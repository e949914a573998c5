package selector

import (
	"context"
	"math"
)

// Progressive solves the modular DA-MS instance with the two-phase greedy of
// Algorithm 4. Phase one covers ℓ distinct historical transactions by
// minimising α_i = |x_i| / min(ℓ−|H|, |H_i\H|); phase two drives the
// diversity slack δ = q₁ − c·(q_ℓ+…+q_θ) below zero by maximising the
// improvement-per-token ratio β_i = (δ − δ_i)/|x_i|. Approximation ratio:
// Theorem 6.5.
func Progressive(p *Problem) (Result, error) {
	return ProgressiveCtx(context.Background(), p)
}

// ProgressiveCtx is Progressive with cooperative cancellation: the greedy
// loops poll ctx at every step, so a caller that already has a satisfying
// candidate (the parallel executor) can abandon in-flight solves cheaply.
func ProgressiveCtx(ctx context.Context, p *Problem) (Result, error) {
	st := newState(p)
	if st.hist.Satisfies(p.Req) {
		return st.result(), nil
	}
	if err := st.coverHTPhase(ctx); err != nil {
		return Result{}, err
	}
	for !st.hist.Satisfies(p.Req) {
		if cancelled(ctx) {
			return Result{}, ctxErr(ctx)
		}
		st.iters++
		delta := st.hist.Slack(p.Req)
		best := -1
		bestBeta := math.Inf(-1)
		for i, m := range p.Candidates {
			if st.selected[i] {
				continue
			}
			beta := (delta - st.slackWith(i)) / float64(m.Size())
			if beta > bestBeta {
				bestBeta, best = beta, i
			}
		}
		if best == -1 {
			return Result{}, ErrNoEligible // all modules used, still infeasible
		}
		st.add(best)
	}
	return st.result(), nil
}
