// Command txgen is the load harness for the node's spend protocol: it drives
// POST /v1/spend at an in-process node (default) or a remote one (-node URL),
// sweeping a grid of batch sizes λ and offered loads, and reports throughput,
// tail latency (p50/p95/p99), shed rate and the per-stage time breakdown
// recovered from request traces.
//
// Usage:
//
//	txgen                                     # default closed-loop sweep
//	txgen -arrival poisson -rate 50,200       # open loop at two arrival rates
//	txgen -arrival closed,poisson             # both models in one artefact
//	txgen -lambda 100,400 -conc 1,4,16        # λ × concurrency grid
//	txgen -node http://host:8791 -lambda 0    # drive a remote node
//	txgen -out BENCH_load.json                # write the JSON artefact
//	txgen -assert                             # exit 1 unless every row spent, dropped no spans, reconciles and refused nothing it should not
//
// -arrival is a comma list; each model contributes its own grid points to the
// one report. Closed loop sweeps the -conc list (fixed worker populations — a
// capacity measure); "fixed"/"poisson" arrivals sweep the -rate list with the
// first -conc entry as the outstanding-request bound. Each in-process run gets a fresh node (spends
// mutate the ledger), built at each λ of the -lambda list; remote runs use the
// node as-is and λ is recorded as 0. In-process runs include the per-stage
// breakdown (queue-wait/batch-wait/sample/sign/verify-sig/verify/commit
// deltas over the measured window); remote ones cannot, their traces live in
// the server — see its /debug/traces. The report
// records the commit it was measured at.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tokenmagic/internal/bench"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/loadgen"
	"tokenmagic/internal/obs/trace"
)

// remotePopulation assumes the remote node serves a synthetic chain with
// densely numbered tokens (what `tokenmagic serve` builds) and spends the
// first n of them.
func remotePopulation(n int) chain.TokenSet {
	toks := make([]chain.TokenID, n)
	for i := range toks {
		toks[i] = chain.TokenID(i)
	}
	return chain.NewTokenSet(toks...)
}

// Row is one grid point of the sweep.
type Row struct {
	Lambda int     `json:"lambda"`
	Rate   float64 `json:"rate,omitempty"` // open loop only
	loadgen.Result
}

// Report is the BENCH_load.json artefact.
type Report struct {
	GeneratedAt string  `json:"generated_at"`
	Commit      string  `json:"commit"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	Node        string  `json:"node"` // "in-process" or the remote URL
	Population  int     `json:"population"`
	Pattern     string  `json:"pattern"`
	Arrival     string  `json:"arrival"`
	Seconds     float64 `json:"measure_seconds"`
	Warmup      float64 `json:"warmup_seconds"`
	Rows        []Row   `json:"rows"`
}

func main() {
	var (
		nodeURL    = flag.String("node", "", "remote node base URL; empty runs an in-process node per grid point")
		arrival    = flag.String("arrival", "closed", "load models: closed|fixed|poisson (comma list)")
		rates      = flag.String("rate", "50,200", "open-loop arrival rates (req/s, comma list)")
		concs      = flag.String("conc", "1,4,16", "closed-loop worker counts, or open-loop outstanding bound (comma list; open loop uses the first)")
		lambdas    = flag.String("lambda", "100,400", "in-process node batch sizes λ (comma list; 0 = whole population)")
		popSize    = flag.Int("population", 2000, "spendable tokens per in-process node (and spend-stream size for remote)")
		pattern    = flag.String("pattern", "uniform", "spend pattern: uniform|zipf")
		duration   = flag.Duration("duration", 5*time.Second, "measured window per grid point")
		warmup     = flag.Duration("warmup", 1*time.Second, "unmeasured warmup per grid point")
		seed       = flag.Int64("seed", 1, "seed for the chain and the spend stream")
		c          = flag.Float64("c", 1, "diversity requirement c")
		l          = flag.Int("l", 3, "diversity requirement ℓ")
		eta        = flag.Float64("eta", 0, "liveness guard η for in-process nodes")
		randomize  = flag.Bool("randomize", true, "candidate sampling (Algorithm 1) on in-process nodes")
		stopAfter  = flag.Int("stop-after", 8, "candidate sweep early-stop (0 = full sweep)")
		maxInF     = flag.Int("max-inflight", 4, "in-process admission gate: concurrent requests (0 disables)")
		maxQueue   = flag.Int("max-queue", 8, "in-process admission gate: waiting room")
		out        = flag.String("out", "", "write the JSON report to this path")
		assertFlag = flag.Bool("assert", false, "exit 1 unless every grid point completed spends, dropped no spans, reconciles its stage counts and, on a uniform in-process stream at η = 0, refused none (CI smoke)")
	)
	flag.Parse()

	concList, err := parseInts(*concs)
	fail(err)
	lambdaList, err := parseInts(*lambdas)
	fail(err)
	rateList, err := parseFloats(*rates)
	fail(err)
	arrivalList := strings.Split(*arrival, ",")
	for i, a := range arrivalList {
		arrivalList[i] = strings.TrimSpace(a)
		switch arrivalList[i] {
		case "closed", "fixed", "poisson":
		default:
			fail(fmt.Errorf("unknown arrival model %q", a))
		}
	}
	if *nodeURL != "" {
		lambdaList = []int{0} // λ belongs to the remote node's config
	}

	rep := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Commit:      bench.Commit(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Node:        "in-process",
		Population:  *popSize,
		Pattern:     *pattern,
		Arrival:     *arrival,
		Seconds:     duration.Seconds(),
		Warmup:      warmup.Seconds(),
	}
	if *nodeURL != "" {
		rep.Node = *nodeURL
	}

	// Grid points: closed loop sweeps worker counts, open loop sweeps rates.
	type point struct {
		arrival string
		rate    float64
		conc    int
	}
	var points []point
	for _, a := range arrivalList {
		if a == "closed" {
			for _, cc := range concList {
				points = append(points, point{arrival: a, conc: cc})
			}
		} else {
			for _, r := range rateList {
				points = append(points, point{arrival: a, rate: r, conc: concList[0]})
			}
		}
	}

	trace.Default().SetEnabled(true)
	for _, lambda := range lambdaList {
		for _, pt := range points {
			cfg := loadgen.Config{
				BaseURL:     *nodeURL,
				Arrival:     pt.arrival,
				Rate:        pt.rate,
				Concurrency: pt.conc,
				Duration:    *duration,
				Warmup:      *warmup,
				Pattern:     *pattern,
				Seed:        *seed,
				C:           *c,
				L:           *l,
			}
			if *nodeURL == "" {
				// Fresh node per grid point: spends consume the population.
				n, err := loadgen.StartInProcNode(loadgen.NodeOptions{
					Population:  *popSize,
					Lambda:      lambda,
					Eta:         *eta,
					Seed:        *seed,
					Randomize:   *randomize,
					StopAfter:   *stopAfter,
					MaxInFlight: *maxInF,
					MaxQueue:    *maxQueue,
				})
				fail(err)
				cfg.BaseURL = n.BaseURL
				cfg.Population = n.Population
				cfg.Stages = trace.Default()
				res, err := loadgen.Run(cfg)
				n.Close()
				fail(err)
				rep.Rows = append(rep.Rows, Row{Lambda: lambda, Rate: pt.rate, Result: res})
			} else {
				cfg.Population = remotePopulation(*popSize)
				res, err := loadgen.Run(cfg)
				fail(err)
				rep.Rows = append(rep.Rows, Row{Rate: pt.rate, Result: res})
			}
			printRow(rep.Rows[len(rep.Rows)-1])
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		fail(err)
		data = append(data, '\n')
		fail(os.WriteFile(*out, data, 0o644))
		fmt.Println("wrote", *out)
	}
	if *assertFlag {
		for _, r := range rep.Rows {
			if r.OK == 0 || r.ThroughputRPS <= 0 {
				fail(fmt.Errorf("grid point λ=%d conc=%d rate=%g completed no spends: %+v",
					r.Lambda, r.Concurrency, r.Rate, r.Result))
			}
			if r.DroppedSpans > 0 {
				fail(fmt.Errorf("grid point λ=%d conc=%d rate=%g dropped %d spans: its stage breakdown is incomplete",
					r.Lambda, r.Concurrency, r.Rate, r.DroppedSpans))
			}
			if *nodeURL == "" {
				if err := reconcile(r.Result, *pattern); err != nil {
					fail(fmt.Errorf("grid point λ=%d conc=%d rate=%g: %w", r.Lambda, r.Concurrency, r.Rate, err))
				}
				// A uniform stream spends each target once, and η = 0 refuses
				// nothing for liveness: a 422 there is an ordering artefact.
				if *pattern == "uniform" && *eta == 0 && r.Rejected > 0 {
					fail(fmt.Errorf("grid point λ=%d conc=%d rate=%g: %d spends of a uniform stream refused at η = 0",
						r.Lambda, r.Concurrency, r.Rate, r.Rejected))
				}
			}
		}
		fmt.Println("assert: every grid point completed spends, dropped no spans and reconciles")
	}
}

// reconcile checks that an in-process row's stage counts account for its
// outcomes, following node.spend's control flow:
//
//   - every spend runs one sample, so sample = ok + rejected + errors;
//   - a spend that selected a ring signs it and verifies the signature,
//     so sign = verify-sig;
//   - it then commits unless its key image is already used, and every ok
//     spend committed once, so commit ≥ ok. A uniform stream draws each
//     target once, so there commit = verify-sig; under zipf double spends
//     break that one.
//
// Each identity may be off by one in-flight request per client at each
// window edge: a request straddling the warm-up boundary has its later
// stages counted but not its outcome, and a request its client gave up on
// (an error) may still be running when the window closes.
//
// Stage times must also add up to latency: the top-level stages' total
// time per completed request must lie within claimTolerance of the mean
// latency (see claimedShare).
func reconcile(r loadgen.Result, pattern string) error {
	slack := int64(r.Concurrency)
	count := func(stage string) int64 { return r.Stages[stage].Count }
	check := func(what string, got, want int64) error {
		if got-want > slack || want-got > slack {
			return fmt.Errorf("stage counts do not reconcile: %s: %d vs %d, beyond the %d requests in flight at a window edge", what, got, want, slack)
		}
		return nil
	}
	if err := check("sample vs ok+rejected+errors", count("sample"), r.OK+r.Rejected+r.Errors); err != nil {
		return err
	}
	if err := check("sign vs verify-sig", count("sign"), count("verify-sig")); err != nil {
		return err
	}
	if r.OK-count("commit") > slack {
		return fmt.Errorf("stage counts do not reconcile: %d ok spends but %d commits", r.OK, count("commit"))
	}
	if pattern == "uniform" {
		if err := check("commit vs verify-sig", count("commit"), count("verify-sig")); err != nil {
			return err
		}
	}
	if share := claimedShare(r); math.Abs(share-1) > claimTolerance {
		return fmt.Errorf("stage times do not add up to latency: the top-level stages claim %.1f%% of the %s mean latency, outside 100±%.0f%%",
			100*share, us(r.Latency.MeanUS), 100*claimTolerance)
	}
	return nil
}

// topLevelStages are the spans directly under a spend's root span; the
// Step-3 "verify" runs inside "commit", so it is not summed again.
var topLevelStages = []string{"queue-wait", "batch-wait", "sample", "sign", "verify-sig", "commit"}

// claimTolerance bounds |claimedShare − 1| on an in-process row. The
// unclaimed rest is HTTP and JSON on both ends of the loopback call, plus
// the window-edge requests whose stages are counted without their outcome.
// EXPERIMENTS.md ("Stage times add up to latency") records the CI-shape
// runs it was chosen from.
const claimTolerance = 0.15

// claimedShare returns the share of a row's mean latency that its
// top-level stages claim: Σ(stage mean × count) over topLevelStages,
// divided by the completed requests (ok + rejected + errors, the requests
// whose stages were counted), over the mean latency. It is 0 for a
// row without latency.
func claimedShare(r loadgen.Result) float64 {
	completed := r.OK + r.Rejected + r.Errors
	if completed == 0 || r.Latency.MeanUS <= 0 {
		return 0
	}
	totalUS := 0.0
	for _, name := range topLevelStages {
		st := r.Stages[name]
		totalUS += st.MeanUS * float64(st.Count)
	}
	return totalUS / float64(completed) / r.Latency.MeanUS
}

func printRow(r Row) {
	head := fmt.Sprintf("λ=%-5d conc=%-3d", r.Lambda, r.Concurrency)
	if r.Arrival != "closed" {
		head = fmt.Sprintf("λ=%-5d %s=%-6g conc=%-3d", r.Lambda, r.Arrival, r.Rate, r.Concurrency)
	}
	fmt.Printf("%s  %7.1f req/s  p50=%-8s p99=%-8s shed=%4.1f%%  ok=%d rej=%d err=%d skip=%d\n",
		head, r.ThroughputRPS,
		us(r.Latency.P50), us(r.Latency.P99), r.ShedRate*100,
		r.OK, r.Rejected, r.Errors, r.Skipped)
	if len(r.Stages) > 0 {
		order := []string{"queue-wait", "batch-wait", "sample", "sign", "verify-sig", "verify", "commit"}
		parts := make([]string, 0, len(order))
		for _, name := range order {
			if st, ok := r.Stages[name]; ok {
				parts = append(parts, fmt.Sprintf("%s %s×%d", name, us(st.MeanUS), st.Count))
			}
		}
		fmt.Printf("  stages: %s  dropped=%d claimed=%.1f%%\n", strings.Join(parts, "  "), r.DroppedSpans, 100*claimedShare(r.Result))
	}
}

// us renders a microsecond quantity at a stable width-friendly precision.
func us(v float64) string {
	if v >= 1e6 {
		return fmt.Sprintf("%.2fs", v/1e6)
	}
	if v >= 1e3 {
		return fmt.Sprintf("%.1fms", v/1e3)
	}
	return fmt.Sprintf("%.0fµs", v)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("txgen: bad list entry %q: %v", f, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("txgen: empty list %q", s)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("txgen: bad list entry %q: %v", f, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("txgen: empty list %q", s)
	}
	return out, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "txgen:", err)
		os.Exit(1)
	}
}
