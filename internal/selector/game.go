package selector

import (
	"context"
	"math"
	"sort"
)

// sortBySizeAsc orders player indices (into mods) by module size, smallest
// first, with index as a stable tiebreaker.
func sortBySizeAsc(order []int, mods []Module) {
	sort.SliceStable(order, func(a, b int) bool {
		return mods[order[a]].Size() < mods[order[b]].Size()
	})
}

// Game solves the modular DA-MS instance with the potential-game
// best-response dynamics of Algorithm 5. Every candidate module is a player
// with strategies φ (selected) and φ̄ (not selected); the cost of a profile
// is |r̃|/|A| when the union's HT multiset satisfies the requirement and ∞
// otherwise. The game is an exact potential game (Φ equals the common cost),
// so best-response sweeps converge to a Nash equilibrium; Theorem 6.6 bounds
// the iterations and Theorem 6.7 the equilibrium quality (PoS ≤ 1).
//
// The returned Result's Iterations counts best-response sweeps after the
// shared HT-cover phase.
func Game(p *Problem) (Result, error) {
	return GameCtx(context.Background(), p)
}

// GameCtx is Game with cooperative cancellation, polled once per
// best-response sweep (each sweep visits every player).
func GameCtx(ctx context.Context, p *Problem) (Result, error) {
	st := newState(p)
	defer st.release()
	if !st.hist.Satisfies(p.Req) {
		if err := st.coverHTPhase(ctx); err != nil {
			return Result{}, err
		}
	}

	order := st.p.candidates()
	nPlayers := len(order)
	if nPlayers == 0 {
		if st.hist.Satisfies(p.Req) {
			return st.result(), nil
		}
		return Result{}, ErrNoEligible
	}

	// cost of the current profile for every player (common cost game).
	cost := func() float64 {
		if st.hist.Satisfies(p.Req) {
			return float64(st.nTokens) / float64(nPlayers)
		}
		return math.Inf(1)
	}

	// Best-response sweeps. The potential decreases by ≥ 1/|A| per strategy
	// change and is bounded by n/|A|, so O(n) sweeps suffice; the cap below
	// only guards against floating-point pathologies.
	//
	// Sweep order is a free choice in best-response dynamics; visiting
	// players in ascending module size means small modules are recruited
	// first when the profile is infeasible (tie → φ), so feasibility is
	// reached with cheap additions and the large modules never need to
	// join. This consistently reaches smaller equilibria than index order;
	// the equilibrium set and the convergence guarantee are unaffected.
	sortBySizeAsc(order, st.mods)
	maxSweeps := 4*nPlayers + 16
	for sweep := 0; sweep < maxSweeps; sweep++ {
		if cancelled(ctx) {
			return Result{}, ctxErr(ctx)
		}
		st.iters++
		changed := false
		for _, i := range order {
			wasSelected := st.selected[i]
			// Cost of strategy φ (selected)…
			if !wasSelected {
				st.add(i)
			}
			costSel := cost()
			// …and of φ̄ (not selected).
			st.remove(i)
			costUnsel := cost()
			// Algorithm 5 line 7: prefer φ on ties. This is what lets an
			// infeasible profile (both costs ∞) recruit players until the
			// union becomes feasible.
			wantSelected := costSel <= costUnsel
			if wantSelected {
				st.add(i)
			}
			if wantSelected != wasSelected {
				changed = true
			}
		}
		if !changed {
			// Nash equilibrium.
			if !st.hist.Satisfies(p.Req) {
				return Result{}, ErrNoEligible
			}
			return st.result(), nil
		}
	}
	if st.hist.Satisfies(p.Req) {
		return st.result(), nil
	}
	return Result{}, ErrNoEligible
}
