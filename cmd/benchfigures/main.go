// Command benchfigures regenerates every table and figure of the paper's
// evaluation section as text series.
//
// Usage:
//
//	benchfigures [-fig N] [-tables] [-ablations] [-instances N] [-seed N] [-max-bfs N]
//	benchfigures -bench-solver BENCH_solver.json
//
// With no flags it runs everything at a moderate instance count. Pass
// -instances 1000 for paper-scale sweeps (slower), -fig 5 for a single
// figure, -tables for the Table 2/3 settings, -ablations for A1–A3.
// -bench-solver runs the solver hot-path microbenchmarks (slack evaluation,
// full solves, GenerateRS at λ ∈ {100, 800}) and writes the before/after
// JSON artefact tracked in the repo root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tokenmagic/internal/bench"
)

func main() {
	var (
		fig       = flag.Int("fig", 0, "run a single figure (3–10); 0 runs all")
		tables    = flag.Bool("tables", false, "print Table 2 and Table 3 settings")
		ablations = flag.Bool("ablations", false, "run ablations A1–A3")
		trace     = flag.Bool("traceability", false, "run the Monero-SM vs TokenMagic traceability experiment")
		quality   = flag.Bool("quality", false, "measure approximation gaps against the exact modular optimum")
		instances = flag.Int("instances", 100, "problem instances per sweep point (paper: 1000)")
		seed      = flag.Int64("seed", 1, "random seed")
		maxBFS    = flag.Int("max-bfs", 4, "rings to generate in the Figure-4 exact run")
		benchOut  = flag.String("bench-solver", "", "run solver hot-path microbenchmarks and write BENCH_solver.json to this path")
		rsOut     = flag.String("bench-ringsig", "", "run the ring-signature sign/verify sweep and write BENCH_ringsig.json to this path")
		anonOut   = flag.String("bench-anonymity", "", "run the solver × attack anonymity sweep and write BENCH_anonymity.json to this path")
	)
	flag.Parse()

	if *benchOut != "" {
		runSolverBench(*benchOut)
		return
	}
	if *rsOut != "" {
		runRingsigBench(*rsOut)
		return
	}
	if *anonOut != "" {
		runAnonymityBench(*anonOut, *seed)
		return
	}

	opts := bench.Options{Instances: *instances, Seed: *seed, Headroom: true}
	runAll := !*tables && !*ablations && !*trace && !*quality && *fig == 0

	if *tables || runAll {
		bench.WriteTables(os.Stdout)
	}

	runFig := func(n int) bool { return runAll || *fig == n }

	if runFig(3) {
		rows, err := bench.Figure3(*seed)
		fail(err)
		bench.WriteFigure3(os.Stdout, rows)
	}
	if runFig(4) {
		pts, err := bench.Figure4(*seed, *maxBFS)
		fail(err)
		bench.WriteFigure4(os.Stdout, pts)
	}
	sweeps := map[int]func(bench.Options) (bench.Series, error){
		5: bench.Figure5, 6: bench.Figure6, 7: bench.Figure7,
		8: bench.Figure8, 9: bench.Figure9, 10: bench.Figure10,
	}
	for n := 5; n <= 10; n++ {
		if !runFig(n) {
			continue
		}
		s, err := sweeps[n](opts)
		fail(err)
		bench.WriteSeries(os.Stdout, s)
	}

	if *ablations || runAll {
		runAblations(*seed)
	}
	if *trace || runAll {
		runTraceability(*seed)
	}
	if *quality || runAll {
		runQuality(*seed)
	}
}

func runSolverBench(path string) {
	fmt.Println("Solver hot-path microbenchmarks (this takes a couple of minutes)…")
	rep, err := bench.SolverBenchmarks()
	fail(err)
	rep.Commit = bench.Commit()
	data, err := json.MarshalIndent(rep, "", "  ")
	fail(err)
	data = append(data, '\n')
	fail(os.WriteFile(path, data, 0o644))
	fmt.Printf("  %-32s %14s %12s %10s\n", "arm", "ns/op", "B/op", "allocs/op")
	for _, r := range rep.Current {
		fmt.Printf("  %-32s %14.0f %12d %10d\n", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	for _, q := range rep.SolveLatency {
		fmt.Printf("  %s: n=%d p50=%.0fµs p99=%.0fµs mean=%.0fµs\n",
			q.Metric, q.Count, q.P50US, q.P99US, q.MeanUS)
	}
	fmt.Println("wrote", path)
}

func runRingsigBench(path string) {
	fmt.Println("Ring-signature sweep (workload check, then sign/verify per ring and batch arms)…")
	rep, err := bench.RingsigBenchmarks()
	fail(err)
	rep.Commit = bench.Commit()
	data, err := json.MarshalIndent(rep, "", "  ")
	fail(err)
	data = append(data, '\n')
	fail(os.WriteFile(path, data, 0o644))
	fmt.Printf("  gomaxprocs=%d num_cpu=%d workload_checked=%v\n",
		rep.GOMAXPROCS, rep.NumCPU, rep.WorkloadChecked)
	fmt.Printf("  %-24s %-5s %-6s %14s %25s %12s\n", "arm", "ring", "batch", "ns/op (median)", "min–max", "sigs/sec")
	for _, p := range append(rep.Single, rep.BatchArms...) {
		batch := "-"
		if p.Batch > 0 {
			batch = fmt.Sprint(p.Batch)
		}
		fmt.Printf("  %-24s %-5d %-6s %14.0f %12.0f–%-12.0f %12.1f\n", p.Arm, p.Ring, batch, p.NsPerOp, p.NsPerOpMin, p.NsPerOpMax, p.SigsPerSec)
	}
	fmt.Println("wrote", path)
}

func runAnonymityBench(path string, seed int64) {
	fmt.Println("Anonymity under attack: solver × attack matrix (graphattack suite)…")
	rep, err := bench.AnonymitySweep(40, 6, seed, 2)
	fail(err)
	rep.Commit = bench.Commit()
	data, err := json.MarshalIndent(rep, "", "  ")
	fail(err)
	data = append(data, '\n')
	fail(os.WriteFile(path, data, 0o644))
	fmt.Printf("  %-6s %-16s %6s %7s %7s %8s %8s %9s\n",
		"solver", "attack", "rings", "traced", "htRev", "meanAnon", "minAnon", "consumed")
	for _, r := range rep.Rows {
		fmt.Printf("  %-6s %-16s %6d %7d %7d %8.2f %8d %9d\n",
			r.Solver, r.Attack, r.Rings, r.Traced, r.HTRevealed,
			r.MeanAnonymity, r.MinAnonymity, r.Consumed)
	}
	fmt.Println("wrote", path)
}

func runQuality(seed int64) {
	fmt.Println("Approximation quality vs the exact modular optimum (small instances)")
	pts, err := bench.Quality(60, seed)
	fail(err)
	fmt.Printf("  %-6s %10s %10s %10s %12s\n", "algo", "instances", "meanGap", "p95Gap", "optimalRate")
	for _, p := range pts {
		fmt.Printf("  %-6s %10d %10.3f %10.3f %11.0f%%\n",
			p.Approach, p.Instances, p.MeanGap, p.P95Gap, p.OptimalRate*100)
	}
	fmt.Println()
}

func runTraceability(seed int64) {
	fmt.Println("Traceability: Monero-style SM sampler vs TokenMagic TM_P (exact chain-reaction adversary)")
	pts, err := bench.Traceability(40, 4, seed)
	fail(err)
	for _, p := range pts {
		fmt.Printf("  %-16s committed=%-3d traced=%-3d htRevealed=%-3d avgAnonymity=%-6.2f minAnonymity=%-3d provablyConsumed=%-3d cascadeTraced=%-3d cascadeConsumed=%d\n",
			p.Strategy, p.RingsCommitted, p.Traced, p.HTRevealed, p.AvgAnonymity,
			p.MinAnonymity, p.ProvablyConsumed, p.CascadeTraced, p.CascadeConsumed)
	}
	fmt.Println()
}

func runAblations(seed int64) {
	a1, err := bench.AblationDTRS(50, seed)
	fail(err)
	fmt.Printf("Ablation A1: DTRS check, exact Algorithm 3 vs Theorem 6.1 closed form\n")
	fmt.Printf("  instances=%d  exact=%v  closed=%v  agreement=%d/%d\n\n",
		a1.Instances, a1.ExactTime, a1.ClosedTime, a1.Agreements, a1.Instances)

	fmt.Printf("Ablation A2: η liveness guard vs selfish fee-minimising users\n")
	for _, eta := range []float64{0, 0.25, 0.5, 1} {
		a2, err := bench.AblationEta(eta, seed)
		fail(err)
		fmt.Printf("  η=%-5v committed=%-3d cheapSingletons=%-3d forcedDiverse=%-3d stranded=%-2d traced=%-3d provablyConsumed=%d/%d\n",
			eta, a2.RingsCommitted, a2.CheapCommitted, a2.ForcedDiverse,
			a2.Stranded, a2.TracedRings, a2.ProvablyConsumed, a2.TokensTotal)
	}
	fmt.Println()

	fmt.Printf("Ablation A3: (c, ℓ+1) headroom configuration\n")
	for _, on := range []bool{true, false} {
		a3, err := bench.AblationHeadroom(on, 30, seed)
		fail(err)
		fmt.Printf("  headroom=%-5v committed=%-3d DTRS violations=%d\n",
			on, a3.Committed, a3.Violations)
	}
	fmt.Println()
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfigures:", err)
		os.Exit(1)
	}
}
