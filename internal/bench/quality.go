package bench

import (
	"errors"
	"math/rand"

	"tokenmagic/internal/diversity"
	"tokenmagic/internal/selector"
	"tokenmagic/internal/stats"
	"tokenmagic/internal/tokenmagic"
	"tokenmagic/internal/workload"
)

// QualityPoint is one solver's measured optimality gap distribution over
// small instances where the exact modular optimum is computable.
type QualityPoint struct {
	Approach  string
	Instances int
	// MeanGap and P95Gap are ratios size/OPT (1.0 = optimal).
	MeanGap float64
	P95Gap  float64
	// OptimalRate is the fraction of instances solved exactly.
	OptimalRate float64
}

// Quality measures how close each approximation algorithm gets to the exact
// modular optimum on small synthetic instances (≤ maxModules candidate
// modules so brute force is tractable). This quantifies the practical gap
// behind the loose Theorem 6.5 / 6.7 bounds.
func Quality(instances int, seed int64) ([]QualityPoint, error) {
	rng := rand.New(rand.NewSource(seed))
	type agg struct {
		gaps    stats.Sample
		optimal int
		n       int
	}
	aggs := map[string]*agg{}
	for _, a := range Approaches {
		aggs[a.String()] = &agg{}
	}

	const maxModules = 14
	made := 0
	for attempt := 0; attempt < instances*20 && made < instances; attempt++ {
		p := workload.SyntheticParams{
			NumSupers:    3 + rng.Intn(5),
			SuperSizeMin: 2,
			SuperSizeMax: 5,
			NumFresh:     rng.Intn(6),
			Sigma:        4 + rng.Float64()*8,
			Seed:         seed + int64(attempt),
		}
		d, err := workload.Synthetic(p)
		if err != nil {
			return nil, err
		}
		is := prepare(d)
		target := is.universe[rng.Intn(len(is.universe))]
		req := diversity.Requirement{C: 0.8 + rng.Float64(), L: 2 + rng.Intn(3)}
		prob, err := is.tab.Problem(target, req)
		if err != nil {
			continue
		}
		if is.tab.Len()-1 > maxModules {
			continue
		}
		opt, err := selector.ExactModular(prob, maxModules)
		if errors.Is(err, selector.ErrNoEligible) {
			continue
		}
		if err != nil {
			return nil, err
		}
		made++

		for _, a := range Approaches {
			var res selector.Result
			var solveErr error
			switch a {
			case tokenmagic.Progressive:
				res, solveErr = selector.Progressive(prob)
			case tokenmagic.Game:
				res, solveErr = selector.Game(prob)
			case tokenmagic.Smallest:
				res, solveErr = selector.Smallest(prob)
			case tokenmagic.RandomPick:
				res, solveErr = selector.Random(prob, rng)
			}
			if solveErr != nil {
				continue // heuristic failed on a feasible instance; skip
			}
			g := aggs[a.String()]
			ratio := float64(res.Size()) / float64(opt.Size())
			g.gaps.Add(ratio)
			if res.Size() == opt.Size() {
				g.optimal++
			}
			g.n++
		}
	}

	var out []QualityPoint
	for _, a := range Approaches {
		g := aggs[a.String()]
		qp := QualityPoint{Approach: a.String(), Instances: g.n}
		if g.n > 0 {
			qp.MeanGap = g.gaps.Mean()
			qp.P95Gap = g.gaps.P95()
			qp.OptimalRate = float64(g.optimal) / float64(g.n)
		}
		out = append(out, qp)
	}
	return out, nil
}
