package bench

// Solver hot-path microbenchmarks behind BENCH_solver.json: slack evaluation
// (legacy clone+sort reference vs the incremental count-of-counts index),
// full DA-MS solves, Algorithm 1's candidate sweep over a wide batch, and
// end-to-end GenerateRS with Algorithm-1 candidate randomisation at
// λ ∈ {100, 800}. cmd/benchfigures -bench-solver runs them
// via testing.Benchmark and writes the JSON artefact so later PRs can track
// the trajectory; internal/bench's *_test.go exposes the same functions as
// ordinary `go test -bench` entries.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/selector"
	"tokenmagic/internal/tokenmagic"
	"tokenmagic/internal/workload"
)

// BenchResult is one measured benchmark arm.
type BenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// LatencyQuantiles summarises one framework.solve.* latency histogram.
type LatencyQuantiles struct {
	Metric  string  `json:"metric"`
	Count   uint64  `json:"count"`
	P50US   float64 `json:"p50_us"`
	P99US   float64 `json:"p99_us"`
	MeanUS  float64 `json:"mean_us"`
	Context string  `json:"context"`
}

// SolverBenchReport is the BENCH_solver.json payload. Commit names the
// checkout it was measured at (the caller fills it in); GOMAXPROCS and
// NumCPU record the measuring machine.
type SolverBenchReport struct {
	GeneratedBy    string             `json:"generated_by"`
	Commit         string             `json:"commit"`
	GOOS           string             `json:"goos"`
	GOARCH         string             `json:"goarch"`
	GOMAXPROCS     int                `json:"gomaxprocs"`
	NumCPU         int                `json:"num_cpu"`
	BaselineCommit string             `json:"baseline_commit"`
	BaselineNote   string             `json:"baseline_note"`
	Baseline       []BenchResult      `json:"baseline"`
	Current        []BenchResult      `json:"current"`
	SolveLatency   []LatencyQuantiles `json:"solve_latency"`
}

// SolverBaseline are the pre-engine numbers, measured on the commit before
// the incremental diversity-slack engine landed (312d4af, Intel Xeon
// @2.10GHz, go1.22 linux/amd64) with the same workloads and arms as
// SolverBenchmarks. Kept as the fixed "before" column of BENCH_solver.json.
var SolverBaseline = []BenchResult{
	{Name: "slack_eval", NsPerOp: 1986, BytesPerOp: 1152, AllocsPerOp: 8},
	{Name: "solve/TM_P", NsPerOp: 267381, BytesPerOp: 94545, AllocsPerOp: 1499},
	{Name: "solve/TM_G", NsPerOp: 910000, BytesPerOp: 293100, AllocsPerOp: 3111},
	{Name: "generate/TM_P/lambda=100", NsPerOp: 160026285, BytesPerOp: 60863701, AllocsPerOp: 929957},
	{Name: "generate/TM_P/lambda=800", NsPerOp: 160514558, BytesPerOp: 60863685, AllocsPerOp: 929956},
}

// solverBenchEnv is the shared fixture: the real Monero data set decomposed
// once, plus the Table-2 default requirement with headroom, the problem of
// consuming its first token, and the module the slack arms add: the first
// super ring that does not hold that token.
type solverBenchEnv struct {
	is  *instanceSet
	req diversity.Requirement
	p   *selector.Problem
	mod chain.TokenSet
}

func newSolverBenchEnv() (*solverBenchEnv, error) {
	d, err := workload.RealMonero(1)
	if err != nil {
		return nil, err
	}
	is := prepare(d)
	req := diversity.Requirement{C: 0.6, L: 40}.WithHeadroom()
	target := is.universe[0]
	p, err := is.tab.Problem(target, req)
	if err != nil {
		return nil, err
	}
	// A token lies in at most one super ring, so one of the first two is it.
	if len(is.supers) < 2 {
		return nil, fmt.Errorf("bench: solver fixture has %d super rings, want two or more", len(is.supers))
	}
	mod := is.supers[0].Ring.Tokens
	if mod.Contains(target) {
		mod = is.supers[1].Ring.Tokens
	}
	return &solverBenchEnv{is: is, req: req, p: p, mod: mod}, nil
}

// BenchSlackReference measures the pre-engine slack evaluation strategy:
// clone the count map, call Origin per module token, sort the frequency
// slice, fold the tail. Kept as the in-tree reference arm so the speedup
// stays measurable after the legacy path is gone.
func BenchSlackReference(b *testing.B) {
	env, err := newSolverBenchEnv()
	if err != nil {
		b.Fatal(err)
	}
	base := map[chain.TxID]int{}
	total := 0
	for _, t := range env.p.Mandatory.Tokens {
		base[env.is.origin(t)]++
		total++
	}
	req := env.req
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := make(map[chain.TxID]int, len(base))
		for k, v := range base {
			counts[k] = v
		}
		n := total
		for _, t := range env.mod {
			counts[env.is.origin(t)]++
			n++
		}
		qs := make([]int, 0, len(counts))
		for _, c := range counts {
			qs = append(qs, c)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(qs)))
		tail := 0.0
		for j := req.L - 1; j < len(qs); j++ {
			tail += float64(qs[j])
		}
		sink = float64(qs[0]) - req.C*tail
	}
}

// BenchSlackIncremental measures the same evaluation as a delta probe
// against the incremental count-of-counts index, with the HTs interned as
// dense class ids up front the way a selector Table interns them.
func BenchSlackIncremental(b *testing.B) {
	env, err := newSolverBenchEnv()
	if err != nil {
		b.Fatal(err)
	}
	ids := map[chain.TxID]int{}
	class := func(t chain.TokenID) int {
		tx := env.is.origin(t)
		c, ok := ids[tx]
		if !ok {
			c = len(ids)
			ids[tx] = c
		}
		return c
	}
	// Sized for the most classes the two token sets can hold.
	hist := diversity.NewHistogram(len(env.p.Mandatory.Tokens) + len(env.mod))
	for _, t := range env.p.Mandatory.Tokens {
		hist.Add(class(t))
	}
	hts := make([]int, len(env.mod))
	for i, t := range env.mod {
		hts[i] = class(t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = hist.SlackIfAdded(env.req, hts)
	}
}

// sink defeats dead-code elimination in the benchmark loops.
var sink float64

// BenchSolve measures one full DA-MS solve on the real data set.
func BenchSolve(b *testing.B, algo tokenmagic.Algorithm) {
	env, err := newSolverBenchEnv()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var solveErr error
		switch algo {
		case tokenmagic.Progressive:
			_, solveErr = selector.Progressive(env.p)
		case tokenmagic.Game:
			_, solveErr = selector.Game(env.p)
		case tokenmagic.Smallest:
			_, solveErr = selector.Smallest(env.p)
		case tokenmagic.RandomPick:
			_, solveErr = selector.Random(env.p, rng)
		}
		if solveErr != nil {
			b.Fatal(solveErr)
		}
	}
}

// BenchGenerateRS measures end-to-end Algorithm 1 with candidate
// randomisation: a candidate per batch token (one TM_P solve per module),
// then a uniform pick. reg receives the framework's telemetry (pass nil for
// the process default).
func BenchGenerateRS(b *testing.B, lambda int, reg *obs.Registry) {
	d, err := workload.RealMonero(1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := tokenmagic.Config{
		Lambda: lambda, Headroom: true,
		Algorithm: tokenmagic.Progressive, Randomize: true, Metrics: reg,
	}
	fw, err := tokenmagic.New(d.Ledger, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	req := diversity.Requirement{C: 0.6, L: 40}
	target := d.Universe[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.GenerateRS(target, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchSweepWide measures the candidate sweep the spend path runs on a wide
// batch: workload.Nested(800, 400, 1), decomposed once, then per op one
// module Table and one TM_P solve per batch token under (1, 3)+headroom,
// the requirement the benchmark's spends declare. Unlike the one-batch
// Monero fixture, whose modules are all 11-token super rings, most modules
// here are fresh tokens, so the greedy scans meet their bound early.
func BenchSweepWide(b *testing.B) {
	d, err := workload.Nested(800, 400, 1)
	if err != nil {
		b.Fatal(err)
	}
	supers, fresh := selector.Decompose(d.Rings(), d.Universe)
	origin := d.Origin()
	req := diversity.Requirement{C: 1, L: 3}.WithHeadroom()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := selector.NewTable(d.Universe, supers, fresh, origin)
		for _, tok := range d.Universe {
			p, err := tab.Problem(tok, req)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := selector.Progressive(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func toResult(name string, r testing.BenchmarkResult) BenchResult {
	return BenchResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// SolverBenchmarks runs every arm via testing.Benchmark and returns the
// BENCH_solver.json report, including p50/p99 of the framework.solve.*
// latency histogram populated by the λ=800 GenerateRS run.
func SolverBenchmarks() (*SolverBenchReport, error) {
	if _, err := newSolverBenchEnv(); err != nil {
		return nil, err
	}
	rep := &SolverBenchReport{
		GeneratedBy:    "cmd/benchfigures -bench-solver",
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		BaselineCommit: "312d4af",
		BaselineNote:   "pre-engine numbers measured at the listed commit with identical workloads and arms",
		Baseline:       SolverBaseline,
	}
	rep.Current = append(rep.Current,
		toResult("slack_eval/clone_sort_reference", testing.Benchmark(BenchSlackReference)))
	rep.Current = append(rep.Current,
		toResult("slack_eval/incremental", testing.Benchmark(BenchSlackIncremental)))
	rep.Current = append(rep.Current, toResult("solve/TM_P",
		testing.Benchmark(func(b *testing.B) { BenchSolve(b, tokenmagic.Progressive) })))
	rep.Current = append(rep.Current, toResult("solve/TM_G",
		testing.Benchmark(func(b *testing.B) { BenchSolve(b, tokenmagic.Game) })))

	rep.Current = append(rep.Current, toResult("sweep/TM_P/wide", testing.Benchmark(BenchSweepWide)))

	reg := obs.NewRegistry()
	rep.Current = append(rep.Current, toResult("generate/TM_P/lambda=100",
		testing.Benchmark(func(b *testing.B) { BenchGenerateRS(b, 100, reg) })))
	reg800 := obs.NewRegistry()
	rep.Current = append(rep.Current, toResult("generate/TM_P/lambda=800",
		testing.Benchmark(func(b *testing.B) { BenchGenerateRS(b, 800, reg800) })))

	snap := reg800.Histogram("framework.solve.TM_P.latency_us", obs.LatencyBucketsUS).Snapshot()
	rep.SolveLatency = append(rep.SolveLatency, LatencyQuantiles{
		Metric:  "framework.solve.TM_P.latency_us",
		Count:   snap.Count,
		P50US:   snap.Quantile(0.5),
		P99US:   snap.Quantile(0.99),
		MeanUS:  snap.Mean(),
		Context: "GenerateRS benchmark, RealMonero, λ=800, Randomize, (0.6,40)+headroom",
	})
	return rep, nil
}
