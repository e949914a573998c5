// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section 7) as printable series, and adds
// the ablations DESIGN.md calls out. Each figure function is deterministic
// given Options.Seed and returns the same rows/series the paper plots;
// EXPERIMENTS.md records paper-vs-measured shapes.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/selector"
	"tokenmagic/internal/stats"
	"tokenmagic/internal/tokenmagic"
	"tokenmagic/internal/workload"
)

// Approaches compared throughout Section 7, in the paper's plotting order.
var Approaches = []tokenmagic.Algorithm{
	tokenmagic.Smallest,    // TM_S
	tokenmagic.RandomPick,  // TM_R
	tokenmagic.Progressive, // TM_P
	tokenmagic.Game,        // TM_G
}

// Options tunes a sweep.
type Options struct {
	// Instances is the number of problem instances sampled per point.
	// The paper uses 1000; CI-friendly defaults are smaller.
	Instances int
	// Seed makes runs reproducible.
	Seed int64
	// Headroom applies the second practical configuration, as the deployed
	// framework does. The paper's ℓ axis is the user requirement; headroom
	// solves for ℓ+1 internally.
	Headroom bool
}

// Cell is one measured approach at one sweep point. Means reproduce the
// paper's panels; the P95 tails are a strict extension of the harness (the
// paper reports means only).
type Cell struct {
	AvgSize  float64       // mean ring cardinality over successful instances
	P95Size  float64       // 95th-percentile ring cardinality
	AvgTime  time.Duration // mean solve wall time
	P95Time  time.Duration // 95th-percentile solve wall time
	Failures int           // instances with no eligible ring
}

// Point is one x-value of a sweep with one cell per approach.
type Point struct {
	X     float64
	Cells map[string]Cell // keyed by Algorithm.String()
}

// Series is a full figure: a labelled sweep.
type Series struct {
	Name   string
	XLabel string
	Points []Point
}

// instanceSet is a prepared data set plus everything a solver run needs:
// its decomposition and the module table built from it once.
type instanceSet struct {
	universe chain.TokenSet
	origin   func(chain.TokenID) chain.TxID
	supers   []selector.Super
	fresh    chain.TokenSet
	tab      *selector.Table
}

func prepare(d *workload.Dataset) *instanceSet {
	s := &instanceSet{universe: d.Universe, origin: d.Origin()}
	s.supers, s.fresh = selector.Decompose(d.Rings(), s.universe)
	s.tab = selector.NewTable(s.universe, s.supers, s.fresh, s.origin)
	return s
}

// measurePoint runs all approaches over opts.Instances random targets and
// aggregates sizes/times per approach.
func measurePoint(is *instanceSet, req diversity.Requirement, opts Options) map[string]Cell {
	eff := req
	if opts.Headroom {
		eff = req.WithHeadroom()
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	cells := make(map[string]Cell, len(Approaches))
	type agg struct {
		sizes stats.Sample
		times stats.Sample
		fails int
	}
	aggs := make(map[string]*agg, len(Approaches))
	for _, a := range Approaches {
		aggs[a.String()] = &agg{}
	}

	for n := 0; n < opts.Instances; n++ {
		target := is.universe[rng.Intn(len(is.universe))]
		p, err := is.tab.Problem(target, eff)
		if err != nil {
			continue
		}
		for _, a := range Approaches {
			g := aggs[a.String()]
			start := time.Now()
			var res selector.Result
			var solveErr error
			switch a {
			case tokenmagic.Progressive:
				res, solveErr = selector.Progressive(p)
			case tokenmagic.Game:
				res, solveErr = selector.Game(p)
			case tokenmagic.Smallest:
				res, solveErr = selector.Smallest(p)
			case tokenmagic.RandomPick:
				res, solveErr = selector.Random(p, rng)
			}
			elapsed := time.Since(start)
			if solveErr != nil {
				g.fails++
				continue
			}
			g.sizes.Add(float64(res.Size()))
			g.times.AddDuration(elapsed)
		}
	}
	for name, g := range aggs {
		c := Cell{Failures: g.fails}
		if g.sizes.N() > 0 {
			c.AvgSize = g.sizes.Mean()
			c.P95Size = g.sizes.P95()
			c.AvgTime = time.Duration(g.times.Mean() * float64(time.Second))
			c.P95Time = time.Duration(g.times.P95() * float64(time.Second))
		}
		cells[name] = c
	}
	return cells
}

// RealSettings is Table 2: the real-data parameter grid; defaults in bold in
// the paper are marked by Default.
type Setting struct {
	Name    string
	Values  []float64
	Default float64
}

// Table2 returns the real-data experiment settings (Table 2).
func Table2() []Setting {
	return []Setting{
		{Name: "c_tau", Values: []float64{0.2, 0.4, 0.6, 0.8, 1}, Default: 0.6},
		{Name: "l_tau", Values: []float64{20, 30, 40, 50, 60}, Default: 40},
	}
}

// Table3 returns the synthetic experiment settings (Table 3). Super-size
// ranges are encoded by their lower bound; the span is always 10... except
// the first range [1,10] which spans 9 — SuperSizeRanges has the full pairs.
func Table3() []Setting {
	return []Setting{
		{Name: "super_size_lo", Values: []float64{1, 5, 10, 15, 20}, Default: 10},
		{Name: "num_supers", Values: []float64{10, 30, 50, 70, 90}, Default: 50},
		{Name: "num_fresh", Values: []float64{0, 5, 10, 15, 20}, Default: 10},
		{Name: "sigma", Values: []float64{8, 10, 12, 14, 16}, Default: 12},
	}
}

// SuperSizeRanges are Table 3's [s⁻, s⁺] sweep values.
var SuperSizeRanges = [][2]int{{1, 10}, {5, 15}, {10, 20}, {15, 25}, {20, 30}}

// realReq returns Table 2's default requirement with one field overridden.
func realReq(c float64, l int) diversity.Requirement {
	return diversity.Requirement{C: c, L: l}
}

// syntheticReq is the requirement used for Table-3 sweeps. The paper keeps
// the real-data defaults (c=0.6) but the synthetic universes are an order of
// magnitude smaller (≈ 760 tokens over ≈ 60 HT classes at σ=12), so ℓ is
// scaled to stay satisfiable across the whole grid.
func syntheticReq() diversity.Requirement {
	return diversity.Requirement{C: 0.6, L: 10}
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
