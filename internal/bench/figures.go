package bench

import (
	"sort"
	"time"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/rsgraph"
	"tokenmagic/internal/selector"
	"tokenmagic/internal/workload"
)

// Figure3 reproduces the real data set's output-count distribution: how many
// transactions emitted k tokens, as (k, count) pairs sorted by k.
func Figure3(seed int64) ([][2]int, error) {
	d, err := workload.RealMonero(seed)
	if err != nil {
		return nil, err
	}
	h := d.OutputHistogram()
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([][2]int, len(keys))
	for i, k := range keys {
		out[i] = [2]int{k, h[k]}
	}
	return out, nil
}

// Figure4Point is the running time of generating the i-th ring with the
// exact TM_B solver on the small-scale set.
type Figure4Point struct {
	I       int
	Elapsed time.Duration
	Size    int
	// Capped reports that the exact search hit its work cap before
	// completing — the paper's "2 hours for the 8th RS" regime.
	Capped bool
}

// Figure4 runs TM_B on the Figure-4 micro data set: 20 tokens, each ring
// requiring recursive (5,3)-diversity, generating rings one after another
// and timing each. maxRings bounds the run (the paper shows 8; exact search
// grows exponentially, so callers choose how far to push).
func Figure4(seed int64, maxRings int) ([]Figure4Point, error) {
	d, err := workload.SmallScale(workload.SmallScaleParams{Tokens: 20, HTs: 8, Seed: seed})
	if err != nil {
		return nil, err
	}
	origin := d.Origin()
	req := diversity.Requirement{C: 5, L: 3}
	consumed := chain.TokenSet{}
	var points []Figure4Point

	for i := 1; i <= maxRings; i++ {
		// Consume the lowest unconsumed token, as a user queue would.
		var target chain.TokenID = chain.NoToken
		for _, t := range d.Universe {
			if !consumed.Contains(t) {
				target = t
				break
			}
		}
		if target == chain.NoToken {
			break
		}
		p := &selector.ExactProblem{
			Target:   target,
			Universe: d.Universe,
			Rings:    d.Ledger.Rings(),
			Origin:   origin,
			Req:      req,
			// Tight caps: the paper reports ~2 hours for the 8th ring; a
			// capped attempt here surfaces as Capped within seconds instead
			// of stalling the whole harness.
			Enum: rsgraph.EnumOptions{MaxSteps: 1 << 21, MaxCombinations: 1 << 17},
		}
		start := time.Now()
		res, err := selector.BFS(p)
		elapsed := time.Since(start)
		pt := Figure4Point{I: i, Elapsed: elapsed}
		if err != nil {
			pt.Capped = true
			points = append(points, pt)
			break
		}
		pt.Size = res.Size()
		points = append(points, pt)
		if _, err := d.Ledger.AppendRS(res.Tokens, req.C, req.L); err != nil {
			return points, err
		}
		consumed = consumed.Add(target)
	}
	return points, nil
}

// Figure5 sweeps c_τ over the real data set (ℓ_τ = 40): Figure 5(a) is
// AvgSize per approach, 5(b) AvgTime.
func Figure5(opts Options) (Series, error) {
	d, err := workload.RealMonero(opts.Seed)
	if err != nil {
		return Series{}, err
	}
	is := prepare(d)
	s := Series{Name: "Figure 5: effect of c_tau (real)", XLabel: "c_tau"}
	for _, c := range Table2()[0].Values {
		cells := measurePoint(is, realReq(c, 40), opts)
		s.Points = append(s.Points, Point{X: c, Cells: cells})
	}
	return s, nil
}

// Figure6 sweeps ℓ_τ over the real data set (c_τ = 0.6).
func Figure6(opts Options) (Series, error) {
	d, err := workload.RealMonero(opts.Seed)
	if err != nil {
		return Series{}, err
	}
	is := prepare(d)
	s := Series{Name: "Figure 6: effect of l_tau (real)", XLabel: "l_tau"}
	for _, l := range Table2()[1].Values {
		cells := measurePoint(is, realReq(0.6, int(l)), opts)
		s.Points = append(s.Points, Point{X: l, Cells: cells})
	}
	return s, nil
}

// Figure7 sweeps the HT-distribution σ over synthetic data (other params at
// Table-3 defaults).
func Figure7(opts Options) (Series, error) {
	s := Series{Name: "Figure 7: effect of sigma (synthetic)", XLabel: "sigma"}
	for _, sigma := range Table3()[3].Values {
		p := workload.DefaultSynthetic()
		p.Sigma = sigma
		p.Seed = opts.Seed
		d, err := workload.Synthetic(p)
		if err != nil {
			return Series{}, err
		}
		cells := measurePoint(prepare(d), syntheticReq(), opts)
		s.Points = append(s.Points, Point{X: sigma, Cells: cells})
	}
	return s, nil
}

// Figure8 sweeps the number of super rings |S| over synthetic data.
func Figure8(opts Options) (Series, error) {
	s := Series{Name: "Figure 8: effect of |S| (synthetic)", XLabel: "|S|"}
	for _, ns := range Table3()[1].Values {
		p := workload.DefaultSynthetic()
		p.NumSupers = int(ns)
		p.Seed = opts.Seed
		d, err := workload.Synthetic(p)
		if err != nil {
			return Series{}, err
		}
		cells := measurePoint(prepare(d), syntheticReq(), opts)
		s.Points = append(s.Points, Point{X: ns, Cells: cells})
	}
	return s, nil
}

// Figure9 sweeps the super-ring size range [s⁻, s⁺] over synthetic data.
// Points are keyed by the range's lower bound.
func Figure9(opts Options) (Series, error) {
	s := Series{Name: "Figure 9: effect of |s_i| (synthetic)", XLabel: "s_lo"}
	for _, r := range SuperSizeRanges {
		p := workload.DefaultSynthetic()
		p.SuperSizeMin, p.SuperSizeMax = r[0], r[1]
		p.Seed = opts.Seed
		d, err := workload.Synthetic(p)
		if err != nil {
			return Series{}, err
		}
		cells := measurePoint(prepare(d), syntheticReq(), opts)
		s.Points = append(s.Points, Point{X: float64(r[0]), Cells: cells})
	}
	return s, nil
}

// Figure10 sweeps the number of fresh tokens |F| over synthetic data.
func Figure10(opts Options) (Series, error) {
	s := Series{Name: "Figure 10: effect of |F| (synthetic)", XLabel: "|F|"}
	for _, nf := range Table3()[2].Values {
		p := workload.DefaultSynthetic()
		p.NumFresh = int(nf)
		p.Seed = opts.Seed
		d, err := workload.Synthetic(p)
		if err != nil {
			return Series{}, err
		}
		cells := measurePoint(prepare(d), syntheticReq(), opts)
		s.Points = append(s.Points, Point{X: nf, Cells: cells})
	}
	return s, nil
}
