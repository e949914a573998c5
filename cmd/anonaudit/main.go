// Command anonaudit runs the static graph-analysis attack suite
// (internal/adversary/graphattack) over a ledger and reports per-attack
// anonymity metrics — and, with -assert, gates the build on them.
//
// Two sources of rings:
//
//	anonaudit                          # seeded sim: solver × attack sweep
//	anonaudit -data-dir path           # audit a persisted ledger ("ledger" rows)
//
// The sim mode replays the bench workload (internal/bench.AnonymitySweep),
// so its output is byte-comparable with the tracked BENCH_anonymity.json.
// With -assert, each (solver, attack) cell of the current run is compared
// against the committed baseline and the command exits non-zero if any
// cell's min effective anonymity-set size regressed below it; sweep
// parameters default to the baseline's own, so CI needs no flag plumbing.
//
//	anonaudit -assert                  # gate against BENCH_anonymity.json
//	anonaudit -out BENCH_anonymity.json  # regenerate the baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"tokenmagic/internal/adversary/graphattack"
	"tokenmagic/internal/bench"
	"tokenmagic/internal/store"
)

func main() {
	var (
		spends    = flag.Int("spends", 40, "sim mode: spends per solver ledger")
		bfsSpends = flag.Int("bfs-spends", 6, "sim mode: spends for the exact TM_B solver (exponential search)")
		seed      = flag.Int64("seed", 1, "sim mode: workload seed")
		window    = flag.Int("window", 2, "temporal adversary: guess-newest window (0 disables the prior)")
		solvers   = flag.String("solvers", "", "sim mode: comma-separated solver subset (default all: "+strings.Join(bench.SolverNames(), ",")+")")
		attacks   = flag.String("attacks", "", "comma-separated attack subset (default all: "+strings.Join(graphattack.AttackNames(), ",")+")")
		out       = flag.String("out", "", "write the report JSON to this path")
		assert    = flag.Bool("assert", false, "fail if any (solver, attack) min anonymity regressed below the baseline")
		baseline  = flag.String("baseline", "BENCH_anonymity.json", "baseline report for -assert")
		dataDir   = flag.String("data-dir", "", "audit this persisted ledger instead of running the sim sweep")
	)
	flag.Parse()

	var base *bench.AnonymityReport
	if *assert {
		var err error
		base, err = readReport(*baseline)
		fail(err)
		// Gate runs must replay the baseline's exact workload; explicit
		// flags still win so an operator can gate a variant deliberately.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["spends"] {
			*spends = base.Spends
		}
		if !set["bfs-spends"] {
			*bfsSpends = base.BFSSpends
		}
		if !set["seed"] {
			*seed = base.Seed
		}
		if !set["window"] {
			*window = base.Window
		}
	}

	var rep *bench.AnonymityReport
	if *dataDir != "" {
		var err error
		rep, err = auditDataDir(*dataDir, *window, splitList(*attacks))
		fail(err)
	} else {
		var err error
		rep, err = bench.AnonymitySweepSubset(
			splitList(*solvers), splitList(*attacks), *spends, *bfsSpends, *seed, *window)
		fail(err)
	}

	fmt.Printf("%-8s %-16s %6s %7s %7s %8s %8s %9s\n",
		"solver", "attack", "rings", "traced", "htRev", "meanAnon", "minAnon", "consumed")
	for _, r := range rep.Rows {
		fmt.Printf("%-8s %-16s %6d %7d %7d %8.2f %8d %9d\n",
			r.Solver, r.Attack, r.Rings, r.Traced, r.HTRevealed,
			r.MeanAnonymity, r.MinAnonymity, r.Consumed)
	}

	if *out != "" {
		rep.Commit = bench.Commit()
		data, err := json.MarshalIndent(rep, "", "  ")
		fail(err)
		fail(os.WriteFile(*out, append(data, '\n'), 0o644))
		fmt.Println("wrote", *out)
	}

	if *assert {
		fail(assertNoRegression(rep, base, *baseline))
		fmt.Println("anonymity gate passed:", *baseline)
	}
}

// auditDataDir opens a persisted ledger read-only-ish (recovery still
// repairs) and runs the attack suite over its committed rings, labelled
// "ledger" in the matrix. A dir that does not exist is an error: store.Open
// would create an empty store there and audit nothing.
func auditDataDir(dir string, window int, attacks []string) (*bench.AnonymityReport, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	rep := &bench.AnonymityReport{
		GeneratedBy: "cmd/anonaudit -data-dir " + dir,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Window:      window,
	}
	opts := graphattack.Options{
		Temporal: graphattack.TemporalOptions{Window: window},
		Attacks:  attacks,
	}
	rep.Rows = bench.AuditRows("ledger", st.Ledger.Rings(), st.Ledger.OriginFunc(), opts)
	return rep, nil
}

// assertNoRegression compares every (solver, attack) cell present in both
// reports: the gate trips when the current min effective anonymity-set size
// drops below the committed floor. No overlap at all is an error — a gate
// comparing nothing would always pass.
func assertNoRegression(cur, base *bench.AnonymityReport, baselinePath string) error {
	floors := make(map[[2]string]bench.AnonymityRow, len(base.Rows))
	for _, r := range base.Rows {
		floors[[2]string{r.Solver, r.Attack}] = r
	}
	overlap := 0
	var violations []string
	for _, r := range cur.Rows {
		b, ok := floors[[2]string{r.Solver, r.Attack}]
		if !ok {
			continue
		}
		overlap++
		if r.MinAnonymity < b.MinAnonymity {
			violations = append(violations, fmt.Sprintf(
				"%s/%s: min anonymity %d < baseline %d", r.Solver, r.Attack, r.MinAnonymity, b.MinAnonymity))
		}
	}
	if overlap == 0 {
		return fmt.Errorf("anonaudit: no (solver, attack) cells overlap %s — nothing gated", baselinePath)
	}
	if len(violations) > 0 {
		return fmt.Errorf("anonaudit: anonymity regression vs %s:\n  %s",
			baselinePath, strings.Join(violations, "\n  "))
	}
	return nil
}

func readReport(path string) (*bench.AnonymityReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep bench.AnonymityReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("anonaudit: parse %s: %w", path, err)
	}
	return &rep, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "anonaudit:", err)
		os.Exit(1)
	}
}
