// Package obs is the system's stdlib-only observability layer: a metrics
// registry of atomic counters, gauges and fixed-bucket histograms, a
// consistent snapshot API, and HTTP middleware that counts requests per route.
//
// Metrics are identified by dotted names ("node.submit.accepted",
// "framework.solve.TM_P.latency_us"); lookups are get-or-create, so
// instrumented code never has to pre-register anything. All mutation paths
// are single atomic operations — safe for concurrent use and cheap enough
// for the solver hot paths.
//
// A registry is read in-process through Snapshot or dumped as plain text
// through WriteText. Serving it to an operator (expvar, /debug/metrics with
// the runtime's own gauges, pprof) is package operator's job, so a library
// user of obs links none of those packages.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 for the counter to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can move both ways (mempool depth, open requests).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts integer observations into fixed buckets. The bucket with
// upper bound b counts observations v ≤ b that no earlier bucket counted; an
// implicit +Inf bucket catches the rest. Latencies are observed in
// microseconds by convention (the *latency_us name suffix).
type Histogram struct {
	bounds  []int64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sum     atomic.Int64
}

// Default bucket layouts. Latency buckets span 50µs–5s; size buckets are
// powers of two up to Monero-scale batches.
var (
	LatencyBucketsUS = []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1000000, 5000000}
	SizeBuckets      = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
)

func newHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	own := make([]int64, len(bounds))
	copy(own, bounds)
	for i := 1; i < len(own); i++ {
		if own[i] <= own[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: own, buckets: make([]atomic.Uint64, len(own)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveSince records the microseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Microseconds())
}

// Bucket is one histogram bucket in a snapshot. Le is the inclusive upper
// bound; the final bucket has Le < 0, meaning +Inf. Count is the number of
// observations that landed in this bucket (not cumulative).
type Bucket struct {
	Le    int64  `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Mean returns the average observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-th quantile (q in [0, 1]) of the observed values
// by linear interpolation inside the containing bucket. Values that landed in
// the +Inf bucket are clamped to that bucket's lower bound, so tail quantiles
// are lower bounds when observations exceeded the largest bound. Returns 0
// for an empty histogram, for a snapshot with no buckets (a zero value or a
// partially decoded one), and for NaN q; q outside [0, 1] is clamped.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q != q { // NaN: no defensible rank, treat like the empty case
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum, lower := 0.0, 0.0
	for _, b := range s.Buckets {
		if b.Le < 0 { // +Inf bucket
			return lower
		}
		upper := float64(b.Le)
		next := cum + float64(b.Count)
		if next >= rank && b.Count > 0 {
			frac := (rank - cum) / float64(b.Count)
			return lower + frac*(upper-lower)
		}
		cum, lower = next, upper
	}
	return lower
}

// Snapshot copies the histogram's current state. Concurrent observations may
// straddle the copy; each bucket read is individually atomic.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]Bucket, len(h.buckets)),
	}
	for i := range h.buckets {
		le := int64(-1) // +Inf
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets[i] = Bucket{Le: le, Count: h.buckets[i].Load()}
	}
	return s
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry, or use the process-wide Default.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that all built-in
// instrumentation reports to.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use. Later calls with different bounds return the existing
// histogram unchanged.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies all current metric values. The returned maps and slices
// are owned by the caller and never mutated by the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteText dumps the registry as sorted plain text, one metric per line:
//
//	counter node.submit.accepted 3
//	gauge node.mempool.pending 0
//	histogram framework.solve.TM_P.latency_us count=6 sum=4521 mean=753.50 p50=312 p99=498 le250:2 le500:4 ...
//
// p50/p99 are Quantile estimates (interpolated within buckets). Histogram
// bucket fields are non-cumulative; only non-empty buckets print. Extra
// lines, if any, are sorted in among the registry's.
func (r *Registry) WriteText(w io.Writer, extra ...string) error {
	lines := append([]string(nil), extra...)
	s := r.Snapshot()
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("counter %s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("gauge %s %d", name, v))
	}
	for name, h := range s.Histograms {
		line := fmt.Sprintf("histogram %s count=%d sum=%d mean=%.2f p50=%.0f p99=%.0f",
			name, h.Count, h.Sum, h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
		for _, b := range h.Buckets {
			if b.Count == 0 {
				continue
			}
			if b.Le < 0 {
				line += fmt.Sprintf(" leInf:%d", b.Count)
			} else {
				line += fmt.Sprintf(" le%d:%d", b.Le, b.Count)
			}
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}
