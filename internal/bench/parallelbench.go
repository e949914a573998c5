package bench

// Parallel-executor benchmarks behind BENCH_parallel.json: end-to-end
// GenerateRS throughput (Algorithm 1 with candidate randomisation, real
// Monero workload) as a sequential-vs-parallel sweep over
// λ ∈ {200, 800} × workers ∈ {1, 2, 4, 8}. Before timing anything the
// harness proves the equivalence contract on the same workload — identical
// rings per seed at every worker count — so a speedup can never come from
// quietly computing something different. cmd/benchfigures -bench-parallel
// writes the JSON artefact; CI regenerates it on every push (multi-core
// runners) and uploads it as a workflow artifact.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/tokenmagic"
	"tokenmagic/internal/workload"
)

// ParallelBenchPoint is one (λ, workers) arm of the sweep.
type ParallelBenchPoint struct {
	Lambda           int     `json:"lambda"`
	Workers          int     `json:"workers"`
	NsPerOp          float64 `json:"ns_per_op"`
	OpsPerSec        float64 `json:"ops_per_sec"`
	SpeedupVs1Worker float64 `json:"speedup_vs_1_worker"`
}

// ParallelBenchReport is the BENCH_parallel.json payload. Commit names the
// checkout it was measured at (the caller fills it in). GOMAXPROCS and
// NumCPU record how much hardware parallelism the measuring machine actually
// had: speedups are bounded by min(workers, NumCPU), so a 1-core container
// legitimately reports ≈1× at every worker count.
type ParallelBenchReport struct {
	GeneratedBy        string               `json:"generated_by"`
	Commit             string               `json:"commit"`
	GOOS               string               `json:"goos"`
	GOARCH             string               `json:"goarch"`
	GOMAXPROCS         int                  `json:"gomaxprocs"`
	NumCPU             int                  `json:"num_cpu"`
	Note               string               `json:"note"`
	EquivalenceChecked bool                 `json:"equivalence_checked"`
	Points             []ParallelBenchPoint `json:"points"`
}

// parallelBenchLambdas and parallelBenchWorkers define the sweep grid.
var (
	parallelBenchLambdas = []int{200, 800}
	parallelBenchWorkers = []int{1, 2, 4, 8}
)

// parallelBenchFramework builds the benchmark framework: real Monero
// workload, Table-2 default requirement, TM_P with candidate randomisation.
func parallelBenchFramework(lambda, workers int, reg *obs.Registry) (*tokenmagic.Framework, *workload.Dataset, error) {
	d, err := workload.RealMonero(1)
	if err != nil {
		return nil, nil, err
	}
	fw, err := tokenmagic.New(d.Ledger, tokenmagic.Config{
		Lambda:      lambda,
		Headroom:    true,
		Algorithm:   tokenmagic.Progressive,
		Randomize:   true,
		Parallelism: workers,
		Metrics:     reg,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, nil, err
	}
	return fw, d, nil
}

// BenchGenerateRSParallel measures end-to-end GenerateRS with the candidate
// sampling executor bounded at the given worker count.
func BenchGenerateRSParallel(b *testing.B, lambda, workers int) {
	reg := obs.NewRegistry()
	fw, d, err := parallelBenchFramework(lambda, workers, reg)
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

// checkParallelEquivalence proves the contract the speedup numbers rest on:
// on the benchmark workload itself, every worker count returns the
// sequential executor's exact ring for the same seed.
func checkParallelEquivalence(lambda int) error {
	req := diversity.Requirement{C: 0.6, L: 40}
	seqFW, d, err := parallelBenchFramework(lambda, 1, obs.NewRegistry())
	if err != nil {
		return err
	}
	target := d.Universe[0]
	for _, workers := range parallelBenchWorkers[1:] {
		parFW, _, err := parallelBenchFramework(lambda, workers, obs.NewRegistry())
		if err != nil {
			return err
		}
		for seed := int64(0); seed < 3; seed++ {
			seqRes, seqErr := seqFW.GenerateRSSeeded(context.Background(), target, req, seed)
			parRes, parErr := parFW.GenerateRSSeeded(context.Background(), target, req, seed)
			if (seqErr == nil) != (parErr == nil) {
				return fmt.Errorf("bench: equivalence broken at λ=%d w=%d seed=%d: %v vs %v",
					lambda, workers, seed, seqErr, parErr)
			}
			if seqErr == nil && !seqRes.Tokens.Equal(parRes.Tokens) {
				return fmt.Errorf("bench: ring divergence at λ=%d w=%d seed=%d", lambda, workers, seed)
			}
		}
	}
	return nil
}

// ParallelBenchmarks runs the equivalence check and the full sweep, and
// returns the BENCH_parallel.json report.
func ParallelBenchmarks() (*ParallelBenchReport, error) {
	rep := &ParallelBenchReport{
		GeneratedBy: "cmd/benchfigures -bench-parallel",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Note: "speedup_vs_1_worker is bounded by min(workers, num_cpu); " +
			"regenerate on a multi-core machine (CI does) for meaningful parallel numbers",
	}
	for _, lambda := range parallelBenchLambdas {
		if err := checkParallelEquivalence(lambda); err != nil {
			return nil, err
		}
	}
	rep.EquivalenceChecked = true
	for _, lambda := range parallelBenchLambdas {
		var base float64
		for _, workers := range parallelBenchWorkers {
			lambda, workers := lambda, workers
			r := testing.Benchmark(func(b *testing.B) { BenchGenerateRSParallel(b, lambda, workers) })
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if workers == 1 {
				base = ns
			}
			pt := ParallelBenchPoint{
				Lambda:    lambda,
				Workers:   workers,
				NsPerOp:   ns,
				OpsPerSec: 1e9 / ns,
			}
			if base > 0 {
				pt.SpeedupVs1Worker = base / ns
			}
			rep.Points = append(rep.Points, pt)
		}
	}
	return rep, nil
}
