// Package loadgen drives spend load at a node over the real HTTP protocol
// (POST /v1/spend) and reports throughput, tail latency, shed rate and the
// per-stage time breakdown from request traces. It is the library behind
// cmd/txgen.
//
// Two load models:
//
//   - closed loop: a fixed population of C workers, each issuing its next
//     request the moment the previous one completes. Offered load adapts to
//     the node's speed; this measures capacity.
//   - open loop ("fixed" or "poisson" arrivals): requests arrive on a clock
//     at rate λ_req regardless of completions, the way independent wallets
//     behave. Outstanding requests are bounded; arrivals past the bound are
//     counted as skipped rather than queued forever, so a saturated node
//     shows up as sheds and skips instead of an unbounded goroutine pile.
//
// Requests issued before the warmup deadline are sent but not measured;
// everything after it lands in the latency histogram and the
// throughput/shed accounting.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/nodesvc"
	"tokenmagic/internal/obs/trace"
	"tokenmagic/internal/workload"
)

// Config is one load run.
type Config struct {
	// BaseURL is the node's public endpoint (e.g. "http://127.0.0.1:8791").
	BaseURL string
	// Client is the HTTP client to use; nil uses a dedicated client with
	// sensible connection reuse for the concurrency below.
	Client *http.Client

	// Arrival picks the load model: "closed", "fixed" or "poisson".
	Arrival string
	// Rate is the open-loop arrival rate in requests/second (ignored for
	// "closed").
	Rate float64
	// Concurrency is the closed-loop worker count, and for open loops the
	// bound on outstanding requests.
	Concurrency int

	// Duration is the measured window; Warmup runs before it, unmeasured.
	Duration time.Duration
	Warmup   time.Duration

	// Population are the spendable targets, Pattern the draw pattern
	// (workload.SpendPatterns) and Seed its determinism.
	Population chain.TokenSet
	Pattern    string
	Seed       int64

	// C and L form the diversity requirement each spend declares.
	C float64
	L int

	// Stages, when non-nil, is the trace collector of the node under test
	// (in-process runs only): the per-stage breakdown is the delta of its
	// aggregates over the measured window.
	Stages *trace.Collector
}

// Latency summarises the measured latency distribution in microseconds.
type Latency struct {
	P50    float64 `json:"p50_us"`
	P95    float64 `json:"p95_us"`
	P99    float64 `json:"p99_us"`
	MeanUS float64 `json:"mean_us"`
	MaxUS  int64   `json:"max_us"`
}

// StageStat is one pipeline stage's share of the measured window. It has
// no max: the collector keeps only a since-start running max, which cannot
// be windowed.
type StageStat struct {
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
}

// Result is one completed load run.
type Result struct {
	Arrival     string  `json:"arrival"`
	OfferedRPS  float64 `json:"offered_rps,omitempty"` // open loop only
	Concurrency int     `json:"concurrency"`

	MeasureSeconds float64 `json:"measure_seconds"`
	// OverrunSeconds is wall time spent past the configured window draining
	// requests that were already in flight at the deadline. Closed-loop
	// workers only start requests before the deadline, but a request started
	// at deadline−ε still runs to completion; its result is attributed to
	// the window (it was admitted by the window's load), while the drain
	// time is reported here instead of silently inflating MeasureSeconds —
	// which used to understate throughput by up to 2× under slow backends.
	OverrunSeconds float64 `json:"overrun_seconds,omitempty"`
	Sent           int64   `json:"sent"`
	OK             int64   `json:"ok"`
	Shed           int64   `json:"shed"`     // 503: admission gate
	Rejected       int64   `json:"rejected"` // 422: validation (double spend, η, …)
	Errors         int64   `json:"errors"`
	Skipped        int64   `json:"skipped,omitempty"` // open loop: outstanding bound hit

	ThroughputRPS float64              `json:"throughput_rps"`
	ShedRate      float64              `json:"shed_rate"`
	Latency       Latency              `json:"latency"`
	Stages        map[string]StageStat `json:"stages,omitempty"`
	// DroppedSpans counts the spans the window's traces lost to the
	// per-trace budget; stages past the budget are missing from Stages.
	// Always 0 without cfg.Stages.
	DroppedSpans int64 `json:"dropped_spans"`
}

// counters aggregates the measured window. Latency lands in an obs histogram
// (for quantiles) plus an atomic max (histograms cap at their last bound).
type counters struct {
	sent, ok, shed, rejected, errs, skipped atomic.Int64

	// Raw per-request latencies of the measured window. A run observes at
	// most duration x rate samples (tens of thousands), so keeping them all
	// is cheap and buys exact percentiles — bucket interpolation over coarse
	// log-spaced buckets can overshoot the true maximum several-fold at the
	// second scale.
	mu      sync.Mutex
	samples []int64
}

func (c *counters) observe(durUS int64) {
	c.mu.Lock()
	c.samples = append(c.samples, durUS)
	c.mu.Unlock()
}

// summarize computes the exact latency summary from the recorded samples
// (nearest-rank percentiles over the sorted set; zeros when nothing landed).
func (c *counters) summarize() Latency {
	c.mu.Lock()
	samples := c.samples
	c.mu.Unlock()
	if len(samples) == 0 {
		return Latency{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum int64
	for _, v := range samples {
		sum += v
	}
	rank := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(samples)))) - 1
		if i < 0 {
			i = 0
		}
		return float64(samples[i])
	}
	return Latency{
		P50:    rank(0.50),
		P95:    rank(0.95),
		P99:    rank(0.99),
		MeanUS: float64(sum) / float64(len(samples)),
		MaxUS:  samples[len(samples)-1],
	}
}

// Run executes one load run against cfg.BaseURL.
func Run(cfg Config) (Result, error) {
	if cfg.Concurrency < 1 {
		cfg.Concurrency = 1
	}
	if cfg.Pattern == "" {
		cfg.Pattern = "uniform"
	}
	switch cfg.Arrival {
	case "closed":
	case "fixed", "poisson":
		if cfg.Rate <= 0 {
			return Result{}, fmt.Errorf("loadgen: open-loop arrival %q needs Rate > 0", cfg.Arrival)
		}
	default:
		return Result{}, fmt.Errorf("loadgen: unknown arrival %q (closed|fixed|poisson)", cfg.Arrival)
	}
	stream, err := workload.NewSpendStream(cfg.Pattern, cfg.Population, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        cfg.Concurrency * 2,
			MaxIdleConnsPerHost: cfg.Concurrency * 2,
		}}
	}

	var streamMu sync.Mutex
	nextTarget := func() (chain.TokenID, bool) {
		streamMu.Lock()
		defer streamMu.Unlock()
		return stream.Next()
	}
	exhausted := func() bool {
		streamMu.Lock()
		defer streamMu.Unlock()
		return stream.Remaining() == 0
	}

	ctrs := &counters{}
	start := time.Now()
	warmupEnd := start.Add(cfg.Warmup)
	deadline := warmupEnd.Add(cfg.Duration)

	// Stage aggregates and the dropped-span total are snapshotted at the
	// warmup boundary (not run start) so the delta matches the measured
	// window; the channel hand-off makes the boundary goroutine's write
	// visible to the read at the end of Run.
	type collectorState struct {
		stages  map[string]trace.StageStats
		dropped int64
	}
	var before chan collectorState
	if cfg.Stages != nil {
		before = make(chan collectorState, 1)
		go func() {
			time.Sleep(time.Until(warmupEnd))
			before <- collectorState{cfg.Stages.StageSnapshot(), cfg.Stages.DroppedSpans()}
		}()
	}

	fire := func() {
		target, ok := nextTarget()
		if !ok {
			return // population exhausted
		}
		reqStart := time.Now()
		measured := !reqStart.Before(warmupEnd)
		status, err := postSpend(client, cfg.BaseURL, nodesvc.SpendRequest{Target: target, C: cfg.C, L: cfg.L})
		if !measured {
			return
		}
		ctrs.sent.Add(1)
		switch {
		case err != nil:
			ctrs.errs.Add(1)
		case status == http.StatusOK:
			ctrs.ok.Add(1)
			ctrs.observe(time.Since(reqStart).Microseconds())
		case status == http.StatusServiceUnavailable:
			ctrs.shed.Add(1)
		case status == http.StatusUnprocessableEntity:
			ctrs.rejected.Add(1)
		default:
			ctrs.errs.Add(1)
		}
	}

	if cfg.Arrival == "closed" {
		var wg sync.WaitGroup
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					fire()
					if exhausted() {
						return
					}
				}
			}()
		}
		wg.Wait()
	} else {
		runOpenLoop(cfg, deadline, ctrs, fire)
	}

	// Denominator discipline: the measured window is the configured duration,
	// not "warmup end until the last straggler returned". wg.Wait() returns
	// only after every in-flight request drains, so the raw elapsed time
	// overruns the window by up to a full request latency per worker; rates
	// divided by it would undercount. Clamp to the configured window and
	// surface the drain explicitly.
	elapsed := time.Since(warmupEnd).Seconds()
	window := cfg.Duration.Seconds()
	overrun := 0.0
	if window > 0 && elapsed > window {
		overrun = elapsed - window
		elapsed = window
	}
	if elapsed <= 0 {
		elapsed = window
	}
	res := Result{
		Arrival:        cfg.Arrival,
		Concurrency:    cfg.Concurrency,
		MeasureSeconds: elapsed,
		OverrunSeconds: overrun,
		Sent:           ctrs.sent.Load(),
		OK:             ctrs.ok.Load(),
		Shed:           ctrs.shed.Load(),
		Rejected:       ctrs.rejected.Load(),
		Errors:         ctrs.errs.Load(),
		Skipped:        ctrs.skipped.Load(),
	}
	if cfg.Arrival != "closed" {
		res.OfferedRPS = cfg.Rate
	}
	res.ThroughputRPS = float64(res.OK) / elapsed
	if res.Sent > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Sent)
	}
	res.Latency = ctrs.summarize()
	if cfg.Stages != nil {
		// The boundary goroutine finished long ago (the measure window sits
		// entirely after the warmup deadline), so this receive is immediate.
		b := <-before
		res.Stages = stageDelta(b.stages, cfg.Stages.StageSnapshot())
		res.DroppedSpans = cfg.Stages.DroppedSpans() - b.dropped
	}
	return res, nil
}

// runOpenLoop paces arrivals on a clock: fixed inter-arrival gaps or
// exponential ones (Poisson process), each arrival firing on its own
// goroutine, with at most cfg.Concurrency outstanding.
func runOpenLoop(cfg Config, deadline time.Time, ctrs *counters, fire func()) {
	//lint:ignore determinism inter-arrival jitter, not part of any replayed experiment outcome
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	gap := time.Duration(float64(time.Second) / cfg.Rate)
	sem := make(chan struct{}, cfg.Concurrency)
	var wg sync.WaitGroup
	next := time.Now()
	for {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		if now.Before(next) {
			time.Sleep(time.Until(next))
		}
		if cfg.Arrival == "poisson" {
			next = next.Add(time.Duration(rng.ExpFloat64() * float64(gap)))
		} else {
			next = next.Add(gap)
		}
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() { <-sem; wg.Done() }()
				fire()
			}()
		default:
			// Outstanding bound hit: the client side is saturated. Count it
			// so offered load stays honest instead of silently self-pacing.
			ctrs.skipped.Add(1)
		}
	}
	wg.Wait()
}

// postSpend posts one spend and returns the HTTP status.
func postSpend(client *http.Client, base string, req nodesvc.SpendRequest) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(base+"/v1/spend", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	// Drain so the connection is reusable.
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, nil
}

// stageDelta subtracts two collector snapshots, keeping stages that moved.
func stageDelta(before, after map[string]trace.StageStats) map[string]StageStat {
	out := make(map[string]StageStat, len(after))
	for name, a := range after {
		b := before[name] // zero value when the stage is new
		count := a.Count - b.Count
		if count <= 0 {
			continue
		}
		total := a.TotalUS - b.TotalUS
		out[name] = StageStat{
			Count:  count,
			MeanUS: float64(total) / float64(count),
		}
	}
	return out
}
