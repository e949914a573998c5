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
//	txgen -assert                             # exit 1 unless every row spent
//
// -arrival is a comma list; each model contributes its own grid points to the
// one report. Closed loop sweeps the -conc list (fixed worker populations — a
// capacity measure); "fixed"/"poisson" arrivals sweep the -rate list with the
// first -conc entry as the outstanding-request bound. Each in-process run gets a fresh node (spends
// mutate the ledger), built at each λ of the -lambda list; remote runs use the
// node as-is and λ is recorded as 0. In-process runs include the per-stage
// breakdown (sample/solve/sign/verify/commit/queue-wait deltas over the
// measured window); remote ones cannot, their traces live in the server —
// see its /debug/traces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

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
		stopAfter  = flag.Int("stop-after", 8, "candidate executor early-stop (0 = full sweep)")
		par        = flag.Int("parallelism", 0, "candidate executor workers (0 = GOMAXPROCS)")
		maxInF     = flag.Int("max-inflight", 4, "in-process admission gate: concurrent requests (0 disables)")
		maxQueue   = flag.Int("max-queue", 8, "in-process admission gate: waiting room")
		out        = flag.String("out", "", "write the JSON report to this path")
		assertFlag = flag.Bool("assert", false, "exit 1 unless every grid point completed spends (CI smoke)")
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
					Parallelism: *par,
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
		}
		fmt.Println("assert: every grid point completed spends")
	}
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
		order := []string{"queue-wait", "sample", "candidate", "solve", "sign", "verify-sig", "verify", "commit"}
		parts := make([]string, 0, len(order))
		for _, name := range order {
			if st, ok := r.Stages[name]; ok {
				parts = append(parts, fmt.Sprintf("%s %s×%d", name, us(st.MeanUS), st.Count))
			}
		}
		fmt.Printf("  stages: %s  dropped=%d\n", strings.Join(parts, "  "), r.DroppedSpans)
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
