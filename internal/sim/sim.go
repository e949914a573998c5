// Package sim runs multi-user simulations of a batch's whole lifecycle: a
// population of users with heterogeneous privacy requirements and selection
// strategies spends tokens over simulated time while an adversary snapshots
// the ledger periodically. It answers the questions the paper's single-shot
// experiments cannot: how does anonymity evolve as a batch drains, when do
// liveness rejections start, and how do strategy mixes interact on one
// chain.
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"tokenmagic/internal/adversary"
	"tokenmagic/internal/adversary/graphattack"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
	itm "tokenmagic/internal/tokenmagic"
	"tokenmagic/internal/workload"
)

// Strategy describes one user population segment.
type Strategy struct {
	// Name labels the segment in reports.
	Name string
	// Algorithm is the TokenMagic solver this segment uses; ignored when
	// ZeroMixin is set.
	Algorithm itm.Algorithm
	// Req is the segment's diversity requirement.
	Req diversity.Requirement
	// ZeroMixin marks fee minimisers who submit bare singleton rings,
	// bypassing selection entirely (the pre-RingCT behaviour).
	ZeroMixin bool
	// Weight is the segment's share of spend attempts (relative).
	Weight int
}

// Config drives one simulation.
type Config struct {
	// Tokens in the simulated batch (all fresh at t=0).
	Tokens int
	// Sigma shapes the HT distribution of the batch (workload.Synthetic).
	Sigma float64
	// Strategies is the population mix; at least one, weights ≥ 1.
	Strategies []Strategy
	// Spends is the number of spend attempts over the run.
	Spends int
	// SnapshotEvery takes an adversary snapshot every k attempts (≥ 1).
	SnapshotEvery int
	// Eta configures the liveness guard of the shared framework.
	Eta float64
	// Parallelism is handed to each framework's candidate-sampling executor
	// (0 = one worker per CPU, 1 = sequential). The simulated outcome is
	// identical at every setting — per-request seeds make the executor
	// replayable — only wall-clock changes.
	Parallelism int
	// Seed fixes all randomness.
	Seed int64
	// Persist, when non-nil, is handed the freshly generated dataset ledger
	// before any spend lands and returns the ledger the run should actually
	// use — the wiring point for durable storage (cmd/tokenmagic seeds an
	// empty store from the generated history, or resumes from a recovered
	// ledger mid-state after a crash). The returned ledger must hold the
	// same token population as the generated one (same Tokens and Seed);
	// rings already on it are simply part of the chain the run extends.
	Persist func(*chain.Ledger) (*chain.Ledger, error)
}

// Snapshot is the adversary's view at one point of simulated time.
type Snapshot struct {
	Attempt          int
	RingsOnChain     int
	Traced           int
	HTRevealed       int
	AvgAnonymity     float64
	MinAnonymity     int
	ProvablyConsumed int
}

// SegmentStats aggregates outcomes per strategy segment.
type SegmentStats struct {
	Name      string
	Attempts  int
	Committed int
	Rejected  int
	AvgSize   float64
}

// Result is a completed simulation.
type Result struct {
	Snapshots []Snapshot
	Segments  []SegmentStats
	// Stranded counts tokens whose spend attempt failed terminally.
	Stranded int
	// Framework is read from the run-private registry every framework the
	// run used (one per algorithm) reports to: solver dispatches,
	// decomposition-cache hit rate, and Step-3 admit/reject classification.
	Framework itm.Stats
	// SolveLatencyUS holds each algorithm's solve-latency histogram
	// ("TM_P" → snapshot), recorded in a registry private to this run, so
	// p50/p99 reflect exactly these spends and not the process lifetime.
	SolveLatencyUS map[string]obs.HistogramSnapshot
	// Final is the DM-derived effective-anonymity summary of the finished
	// ledger (the graphattack suite's exact closure): the headline
	// mean/min effective anonymity-set size the sim prints.
	Final adversary.Metrics
}

// Errors from configuration validation.
var ErrBadConfig = errors.New("sim: invalid configuration")

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.Tokens < 2 || cfg.Spends < 1 || len(cfg.Strategies) == 0 {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	if cfg.SnapshotEvery < 1 {
		cfg.SnapshotEvery = cfg.Spends / 10
		if cfg.SnapshotEvery < 1 {
			cfg.SnapshotEvery = 1
		}
	}
	if cfg.Sigma <= 0 {
		cfg.Sigma = 8
	}
	totalWeight := 0
	for _, s := range cfg.Strategies {
		if s.Weight < 1 {
			return nil, fmt.Errorf("%w: segment %q needs weight ≥ 1", ErrBadConfig, s.Name)
		}
		totalWeight += s.Weight
	}

	d, err := workload.Synthetic(workload.SyntheticParams{
		NumSupers:    0,
		SuperSizeMin: 1,
		SuperSizeMax: 1,
		NumFresh:     cfg.Tokens,
		Sigma:        cfg.Sigma,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	led := d.Ledger
	if cfg.Persist != nil {
		if led, err = cfg.Persist(d.Ledger); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	origin := led.OriginFunc()

	// One shared framework per algorithm keeps the η bookkeeping common. All
	// frameworks report into one run-private registry so the latency
	// snapshots below cover exactly this run.
	reg := obs.NewRegistry()
	frameworks := make(map[itm.Algorithm]*itm.Framework)
	fwFor := func(a itm.Algorithm) (*itm.Framework, error) {
		if f, ok := frameworks[a]; ok {
			return f, nil
		}
		f, err := itm.New(led, itm.Config{
			Lambda:      led.NumTokens(),
			Eta:         cfg.Eta,
			Headroom:    true,
			Algorithm:   a,
			Parallelism: cfg.Parallelism,
			Metrics:     reg,
		}, rng)
		if err != nil {
			return nil, err
		}
		frameworks[a] = f
		return f, nil
	}

	res := &Result{Segments: make([]SegmentStats, len(cfg.Strategies))}
	sizeSums := make([]int, len(cfg.Strategies))
	for i, s := range cfg.Strategies {
		res.Segments[i].Name = s.Name
	}
	spent := make(map[chain.TokenID]bool)

	pickSegment := func() int {
		w := rng.Intn(totalWeight)
		for i, s := range cfg.Strategies {
			if w < s.Weight {
				return i
			}
			w -= s.Weight
		}
		return len(cfg.Strategies) - 1
	}
	pickToken := func() (chain.TokenID, bool) {
		// Uniform over unspent tokens; gives up after a bounded scan.
		for tries := 0; tries < 4*len(d.Universe); tries++ {
			t := d.Universe[rng.Intn(len(d.Universe))]
			if !spent[t] {
				return t, true
			}
		}
		return chain.NoToken, false
	}

	for attempt := 1; attempt <= cfg.Spends; attempt++ {
		si := pickSegment()
		seg := &res.Segments[si]
		seg.Attempts++
		strat := cfg.Strategies[si]

		target, ok := pickToken()
		if !ok {
			res.Stranded++
			seg.Rejected++
			continue
		}

		if strat.ZeroMixin {
			// Bare singleton straight onto the ledger (no verification —
			// modelling a permissive chain or a pre-upgrade era).
			if _, err := led.AppendRS(chain.NewTokenSet(target), strat.Req.C, strat.Req.L); err != nil {
				return nil, err
			}
			spent[target] = true
			seg.Committed++
			sizeSums[si]++
		} else {
			f, err := fwFor(strat.Algorithm)
			if err != nil {
				return nil, err
			}
			_, sel, err := f.GenerateAndCommit(target, strat.Req)
			if err != nil {
				seg.Rejected++
			} else {
				spent[target] = true
				seg.Committed++
				sizeSums[si] += sel.Size()
			}
		}

		if attempt%cfg.SnapshotEvery == 0 || attempt == cfg.Spends {
			a := adversary.ChainReaction(led.Rings(), nil, origin)
			m := adversary.Summarise(a)
			res.Snapshots = append(res.Snapshots, Snapshot{
				Attempt:          attempt,
				RingsOnChain:     m.Rings,
				Traced:           m.Traced,
				HTRevealed:       m.HTRevealed,
				AvgAnonymity:     m.AvgAnonymity,
				MinAnonymity:     m.MinAnonymity,
				ProvablyConsumed: m.ConsumedTokens,
			})
		}
	}
	for i := range res.Segments {
		if res.Segments[i].Committed > 0 {
			res.Segments[i].AvgSize = float64(sizeSums[i]) / float64(res.Segments[i].Committed)
		}
	}
	res.Final = graphattack.DM(led.Rings(), nil, origin).Metrics
	res.Framework = itm.ReadStats(reg)
	res.SolveLatencyUS = make(map[string]obs.HistogramSnapshot, len(frameworks))
	snap := reg.Snapshot()
	for a := range frameworks {
		if h, ok := snap.Histograms["framework.solve."+a.String()+".latency_us"]; ok && h.Count > 0 {
			res.SolveLatencyUS[a.String()] = h
		}
	}
	return res, nil
}

// DefaultMix returns a realistic population: most users on TM_P, a
// fee-sensitive TM_G tail, and a small selfish zero-mixin fraction.
func DefaultMix() []Strategy {
	return []Strategy{
		{Name: "TM_P users", Algorithm: itm.Progressive, Req: diversity.Requirement{C: 1, L: 3}, Weight: 6},
		{Name: "TM_G users", Algorithm: itm.Game, Req: diversity.Requirement{C: 1, L: 3}, Weight: 3},
		{Name: "zero-mixin", ZeroMixin: true, Req: diversity.Requirement{C: 10, L: 1}, Weight: 1},
	}
}
