// Command benchmark is TokenMagic's benchmark. It builds one workload from a
// seed, drives it for a fixed window, checks the program's outputs, and
// prints every metric by name and unit; the last line of standard output is
// the result as one JSON object:
//
//	bash benchmark/run.sh --workload spend-narrow --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics a user of the system
// sees, measured with the program exactly as deployed (a full node over
// HTTP, its own request tracing on). With --trace 1 it runs the traced pass
// instead: the workload's operations replayed through direct calls into
// each layer with a span recorded around every call, then a probe of every
// layer on the final ledger, reporting per-layer metrics and writing the
// spans as JSONL. It exits non-zero when a correctness gate fails.
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"tokenmagic/internal/obs"
	itm "tokenmagic/internal/tokenmagic"
)

// setupRuns is how many times an end-to-end run builds its workload;
// setup_s is the median, and the last build is the one measured.
const setupRuns = 5

// The workloads. Each stresses a different layer; README.md says why each
// exists and which metrics it should move.
var (
	spendWorkloads = map[string]spendWorkload{
		"spend-wide": {
			shape: chainShape{lambda: 800, blocks: 12},
			load:  load{clients: 1, warmup: 2 * time.Second},
		},
		"spend-narrow": {
			shape: chainShape{lambda: 100, blocks: 200},
			load:  load{clients: 2, warmup: 2 * time.Second},
		},
		"spend-durable": {
			shape:   chainShape{lambda: 100, blocks: 200},
			load:    load{clients: 2, rate: 80, warmup: 2 * time.Second},
			durable: true,
		},
	}
	auditWorkloads = map[string]auditWorkload{
		"audit": {
			shape: chainShape{lambda: 100, blocks: 30},
			rings: 300,
			load:  load{clients: 1, warmup: time.Second},
		},
	}
)

// options is one run's settings.
type options struct {
	seed     int64
	window   time.Duration
	traced   bool
	work     string
	traceOut string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome: counts, metrics in report order, failed
// correctness gates and free-form notes.
type report struct {
	attempted, failed int
	names             []string
	metrics           map[string]metric
	problems          []string
	notes             []string
}

func (r *report) add(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a failed correctness gate unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// maxReported caps how many wrong outputs a report lists.
const maxReported = 5

func (r *report) fromLoad(res loadResult) {
	r.attempted += res.attempted
	r.failed += res.failed
	for i, m := range res.incorrect {
		if i == maxReported {
			r.problems = append(r.problems, fmt.Sprintf("… %d wrong outputs in all", len(res.incorrect)))
			break
		}
		r.problems = append(r.problems, m)
	}
	if res.firstErr != nil {
		r.note("first failed operation: %v", res.firstErr)
	}
	r.check(res.attempted > 0, "no operation was measured")
}

// minClaimedPct is the traced pass's gate: layer spans must account for at
// least this share of traced operation time.
const minClaimedPct = 95

// counterSnap holds the program counters and runtime totals the traced pass
// differences over the replay. Program counters absent from the registry
// read as zero.
type counterSnap struct {
	solves, hits, misses int64
	allocBytes, gcs      uint64
}

func counters() counterSnap {
	s := obs.Default().Snapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counterSnap{
		solves:     s.Counters["framework.solve."+itm.Progressive.String()+".count"],
		hits:       s.Counters["framework.decomp.cache_hits"],
		misses:     s.Counters["framework.decomp.cache_misses"],
		allocBytes: ms.TotalAlloc,
		gcs:        uint64(ms.NumGC),
	}
}

// replayMetrics reports the traced replay: where its operations' time went,
// each layer's share of total operation time, then what the replay moved
// per operation.
func (r *report) replayMetrics(res loadResult, b breakdown, before, after counterSnap, retries int64) {
	r.add("path.op_ms", b.meanOpMS, "ms")
	r.add("path.claimed_pct", b.claimedPct, "%")
	r.check(b.claimedPct >= minClaimedPct, "layer spans claim %.1f%% of traced operation time, want ≥ %d%%", b.claimedPct, minClaimedPct)
	s := b.sharePct
	r.add("tokenmagic.select_pct", s["tokenmagic.select"], "%")
	r.add("ringsig.sign_pct", s["ringsig.sign"], "%")
	r.add("ringsig.verify_pct", s["ringsig.verify"], "%")
	r.add("node.commit_pct", s["node.commit"], "%")
	r.add("store.journal_pct", s["store.append"]+s["store.committed"], "%")
	r.add("adversary.audit_pct", s["adversary.chain_reaction"]+s["adversary.summarise"], "%")

	ops := float64(res.issued)
	lookups := float64(after.misses - before.misses + after.hits - before.hits)
	r.add("selector.candidates_per_op", ratio(float64(after.solves-before.solves), ops), "count")
	r.add("tokenmagic.decomp_miss_ratio", ratio(float64(after.misses-before.misses), lookups), "fraction")
	r.add("node.stale_retries_per_op", ratio(float64(retries), ops), "count")
	r.add("runtime.alloc_kb_per_op", ratio(float64(after.allocBytes-before.allocBytes)/1024, ops), "KiB")
	r.add("runtime.gc_per_op", ratio(float64(after.gcs-before.gcs), ops), "count")
}

func workloadNames() []string {
	var names []string
	for n := range spendWorkloads {
		names = append(names, n)
	}
	for n := range auditWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(name string, o options) (*report, error) {
	if w, ok := spendWorkloads[name]; ok {
		return runSpend(w, o)
	}
	if w, ok := auditWorkloads[name]; ok {
		return runAudit(w, o)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed of the workload's inputs (chain, keys, spend order, arrivals)")
		seconds  = flag.Float64("seconds", 10, "length of the measured window in seconds")
		traceArg = flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced pass and its per-layer metrics")
		work     = flag.String("work", filepath.Join(".bench_build", "run"), "scratch directory for data directories and span logs")
		traceOut = flag.String("trace-out", "", "span log (JSONL) of the traced pass (default <work>/spans-<workload>.jsonl)")
		out      = flag.String("out", "", "also write the result, stamped with commit, Go version and CPU counts, to this JSON file")
	)
	flag.Parse()
	if *seconds <= 0 || (*traceArg != 0 && *traceArg != 1) {
		fail(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	o := options{
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *traceArg == 1,
		work:     filepath.Join(*work, fmt.Sprintf("%s-%d", *name, os.Getpid())),
		traceOut: *traceOut,
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(*work, "spans-"+*name+".jsonl")
	}
	rep, err := run(*name, o)
	if rerr := os.RemoveAll(o.work); err == nil {
		err = rerr
	}
	fail(err)

	for _, n := range rep.names {
		m := rep.metrics[n]
		fmt.Printf("%-30s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "FAILED GATE:", p)
	}
	if o.traced {
		fmt.Fprintln(os.Stderr, "spans written to", o.traceOut)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, rep.metrics}
	line, err := json.Marshal(res)
	fail(err)
	if *out != "" {
		fail(writeStamped(*out, *name, o, res, rep))
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// writeStamped writes the result with what is needed to compare it with
// another run: the commit, Go version and CPU counts it ran with.
func writeStamped(path, name string, o options, result any, rep *report) error {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload":   name,
		"seed":       o.seed,
		"seconds":    o.window.Seconds(),
		"traced":     o.traced,
		"commit":     commit,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"result":     result,
		"notes":      rep.notes,
		"problems":   rep.problems,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
