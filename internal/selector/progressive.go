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
// loops poll ctx at every step, so a caller whose request was cancelled
// abandons the in-flight solve cheaply.
func ProgressiveCtx(ctx context.Context, p *Problem) (Result, error) {
	st := newState(p)
	defer st.release()
	if st.hist.Satisfies(p.Req) {
		return st.result(), nil
	}
	if err := st.coverHTPhase(ctx); err != nil {
		return Result{}, err
	}
	// β_i ≤ c for every module, so a scan may stop at the first β_i == c —
	// but only when the slack arithmetic is exact, so that no computed β_i
	// rounds above c (DESIGN.md, "Incremental diversity-slack engine"). For
	// any other c (0.7, 0.6, 0.3) modules of different sizes that reach the
	// bound round to β values an ulp apart, and which one a full scan keeps
	// depends on that rounding, so those scans run to the end.
	betaBound := math.Inf(1)
	if exactSlack(p.Req.C, st.fp.tokens) {
		betaBound = p.Req.C
	}
	for !st.hist.Satisfies(p.Req) {
		if cancelled(ctx) {
			return Result{}, ctxErr(ctx)
		}
		st.iters++
		delta := st.hist.Slack(p.Req)
		best := -1
		bestBeta := math.Inf(-1)
		for i, m := range st.mods {
			if st.selected[i] {
				continue
			}
			beta := (delta - st.slackWith(i)) / float64(m.Size())
			if beta > bestBeta {
				bestBeta, best = beta, i
				if beta == betaBound {
					break // none later is strictly larger
				}
			}
		}
		if best == -1 {
			return Result{}, ErrNoEligible // all modules used, still infeasible
		}
		st.add(best)
	}
	return st.result(), nil
}

// exactSlack reports whether every slack and slack difference the greedy
// computes for c over a table of tokens tokens is exact in float64. It
// holds when c·2²⁰ is an integer below 2³⁰ and tokens < 2²²: every count
// is at most tokens, so c·k is an integer multiple of 2⁻²⁰ below 2³²,
// and q − c·k and its differences stay below 2³³ in that grid — within
// float64's 53-bit significand.
func exactSlack(c float64, tokens int) bool {
	m := c * (1 << 20)
	return m == math.Trunc(m) && m < 1<<30 && tokens < 1<<22
}
