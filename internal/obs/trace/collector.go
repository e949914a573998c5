package trace

import (
	"context"
	"encoding/json"
	"log/slog"
	"maps"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Collector retains finished traces: a bounded ring of recent traces, the N
// slowest exemplars per route with full span trees, and per-stage duration
// aggregates. All methods are safe for concurrent use.
type Collector struct {
	enabled atomic.Bool

	ringSize  int // recent traces retained
	exemplars int // slowest traces retained per route

	mu       sync.Mutex
	ring     []*Trace
	next     int
	total    uint64
	dropped  int64               // spans past the budget, over all finished traces
	slow     map[string][]*Trace // route → slowest-first exemplars
	stages   map[string]StageStats
	observer func(stage string, durUS int64)
}

// StageStats aggregates the ended spans of one name across all traces.
type StageStats struct {
	Count   int64 `json:"count"`
	TotalUS int64 `json:"total_us"`
	MaxUS   int64 `json:"max_us"`
}

// MeanUS is the average span duration in microseconds (0 when empty).
func (s StageStats) MeanUS() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.TotalUS) / float64(s.Count)
}

// maxSpans is the per-trace span budget. A spend opens one span per stage:
// queue-wait, batch-wait, sample, sign, verify-sig, commit and the verify
// under it — 7. The largest legitimate request is a /v1/mine at its default
// of 100 rings: queue-wait and verify-batch, then a commit and its verify
// for each entry it tries — 202 spans, plus two per entry the moved chain
// drops. 256 leaves room for 27 of those; a trace past it drops the rest
// and counts them.
//
// The ring and exemplar counts bound retention to 32 recent traces plus 5
// per route.
const (
	maxSpans         = 256
	defaultRingSize  = 32
	defaultExemplars = 5
)

// NewCollector returns an enabled collector with default bounds.
func NewCollector() *Collector {
	c := &Collector{
		ringSize:  defaultRingSize,
		exemplars: defaultExemplars,
		slow:      make(map[string][]*Trace),
		stages:    make(map[string]StageStats),
	}
	c.enabled.Store(true)
	return c
}

var defaultCollector = NewCollector()

// Default returns the process-wide collector the built-in HTTP middleware
// records to.
func Default() *Collector { return defaultCollector }

// Enabled reports whether New creates traces against this collector.
func (c *Collector) Enabled() bool { return c.enabled.Load() }

// SetEnabled toggles trace creation. In-flight traces still record.
func (c *Collector) SetEnabled(on bool) { c.enabled.Store(on) }

// SetStageObserver installs fn (nil clears it); it is called with every
// ended span's stage name and duration.
func (c *Collector) SetStageObserver(fn func(stage string, durUS int64)) {
	c.mu.Lock()
	c.observer = fn
	c.mu.Unlock()
}

// recordSpan folds one ended span into its stage aggregate and hands it to
// the stage observer.
func (c *Collector) recordSpan(name string, durUS int64) {
	c.mu.Lock()
	st := c.stages[name]
	st.Count++
	st.TotalUS += durUS
	st.MaxUS = max(st.MaxUS, durUS)
	c.stages[name] = st
	obs := c.observer
	c.mu.Unlock()
	if obs != nil {
		obs(name, durUS)
	}
}

// StageSnapshot copies the per-stage aggregates (load generators diff two
// snapshots around their measure window).
func (c *Collector) StageSnapshot() map[string]StageStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.stages)
}

// record files a finished trace into the ring and the per-route exemplars,
// and summarises it to slog when Debug logging is on.
func (c *Collector) record(t *Trace) {
	t.mu.Lock()
	dropped := t.dropped
	t.mu.Unlock()
	c.mu.Lock()
	if len(c.ring) < c.ringSize {
		c.ring = append(c.ring, t)
	} else {
		c.ring[c.next] = t
	}
	c.next = (c.next + 1) % c.ringSize
	c.total++
	c.dropped += int64(dropped)

	// Keep the slowest exemplars for the route, slowest first.
	slow := c.slow[t.route]
	i := sort.Search(len(slow), func(i int) bool { return slow[i].durUS < t.durUS })
	slow = append(slow, nil)
	copy(slow[i+1:], slow[i:])
	slow[i] = t
	if len(slow) > c.exemplars {
		slow = slow[:c.exemplars]
	}
	c.slow[t.route] = slow
	c.mu.Unlock()

	if slog.Default().Enabled(context.Background(), slog.LevelDebug) {
		spans, breakdown := t.breakdown()
		slog.Debug("trace finished",
			"route", t.route,
			"status", t.status,
			"dur_us", t.durUS,
			"spans", spans,
			"breakdown", breakdown)
	}
}

// DroppedSpans is the number of spans every finished trace so far lost to
// the per-trace budget — unlike a trace's own count, it covers the traces
// the ring and exemplars no longer retain.
func (c *Collector) DroppedSpans() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// breakdown renders "name=totalµs" pairs aggregated per span name, sorted by
// descending total — the one-line view of where the request's time went —
// and returns it with the trace's span count.
func (t *Trace) breakdown() (int, string) {
	t.mu.Lock()
	n := len(t.spans)
	totals := make(map[string]int64)
	for _, sr := range t.spans {
		if sr.endUS >= 0 {
			totals[sr.name] += sr.endUS - sr.startUS
		}
	}
	t.mu.Unlock()
	type kv struct {
		name string
		us   int64
	}
	parts := make([]kv, 0, len(totals))
	for name, us := range totals {
		parts = append(parts, kv{name, us})
	}
	sort.Slice(parts, func(a, b int) bool {
		if parts[a].us != parts[b].us {
			return parts[a].us > parts[b].us
		}
		return parts[a].name < parts[b].name
	})
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(p.name)
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(p.us, 10))
		b.WriteString("us")
	}
	return n, b.String()
}

// SpanJSON is one span in the /debug/traces export.
type SpanJSON struct {
	Name        string            `json:"name"`
	Parent      int32             `json:"parent"`
	StartUS     int64             `json:"start_us"`
	DurUS       int64             `json:"dur_us"` // -1 when the span never ended
	Annotations map[string]string `json:"annotations,omitempty"`
}

// TraceJSON is one trace in the /debug/traces export.
type TraceJSON struct {
	Route       string            `json:"route"`
	Start       time.Time         `json:"start"`
	DurUS       int64             `json:"dur_us"`
	Status      string            `json:"status"`
	Dropped     int               `json:"dropped_spans,omitempty"`
	Annotations map[string]string `json:"annotations,omitempty"`
	Spans       []SpanJSON        `json:"spans"`
}

// DebugPayload is the /debug/traces response body.
type DebugPayload struct {
	Enabled bool                   `json:"enabled"`
	Total   uint64                 `json:"total_traces"`
	Dropped int64                  `json:"dropped_spans"`
	Stages  map[string]StageJSON   `json:"stages"`
	Slowest map[string][]TraceJSON `json:"slowest"`
	Recent  []TraceJSON            `json:"recent"`
}

// StageJSON is StageStats plus the derived mean, for export.
type StageJSON struct {
	Count   int64   `json:"count"`
	TotalUS int64   `json:"total_us"`
	MeanUS  float64 `json:"mean_us"`
	MaxUS   int64   `json:"max_us"`
}

func annotMap(annots []annot) map[string]string {
	if len(annots) == 0 {
		return nil
	}
	m := make(map[string]string, len(annots))
	for _, a := range annots {
		m[a.Key] = a.Val
	}
	return m
}

// export snapshots one trace into its JSON form.
func (t *Trace) export() TraceJSON {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := TraceJSON{
		Route:       t.route,
		Start:       t.start,
		DurUS:       t.durUS,
		Status:      t.status,
		Dropped:     t.dropped,
		Annotations: annotMap(t.annots),
		Spans:       make([]SpanJSON, len(t.spans)),
	}
	for i, sr := range t.spans {
		dur := int64(-1)
		if sr.endUS >= 0 {
			dur = sr.endUS - sr.startUS
		}
		out.Spans[i] = SpanJSON{
			Name:        sr.name,
			Parent:      sr.parent,
			StartUS:     sr.startUS,
			DurUS:       dur,
			Annotations: annotMap(sr.annots),
		}
	}
	return out
}

// Snapshot exports the collector's current state. route filters slowest and
// recent to one route ("" keeps all); n caps the recent list (≤0 keeps all).
func (c *Collector) Snapshot(route string, n int) DebugPayload {
	p := DebugPayload{
		Enabled: c.Enabled(),
		Stages:  make(map[string]StageJSON),
		Slowest: make(map[string][]TraceJSON),
	}
	for name, st := range c.StageSnapshot() {
		p.Stages[name] = StageJSON{Count: st.Count, TotalUS: st.TotalUS, MeanUS: st.MeanUS(), MaxUS: st.MaxUS}
	}

	c.mu.Lock()
	p.Total = c.total
	p.Dropped = c.dropped
	var recent []*Trace
	// Ring order: oldest→newest is [next, len) then [0, next); export
	// newest first.
	for i := 0; i < len(c.ring); i++ {
		idx := (c.next - 1 - i + len(c.ring)) % len(c.ring)
		recent = append(recent, c.ring[idx])
	}
	slow := make(map[string][]*Trace, len(c.slow))
	for r, ts := range c.slow {
		if route != "" && r != route {
			continue
		}
		slow[r] = append([]*Trace(nil), ts...)
	}
	c.mu.Unlock()

	for r, ts := range slow {
		out := make([]TraceJSON, len(ts))
		for i, t := range ts {
			out[i] = t.export()
		}
		p.Slowest[r] = out
	}
	for _, t := range recent {
		if route != "" && t.route != route {
			continue
		}
		if n > 0 && len(p.Recent) >= n {
			break
		}
		p.Recent = append(p.Recent, t.export())
	}
	if p.Recent == nil {
		p.Recent = []TraceJSON{}
	}
	return p
}

// Handler serves the collector as JSON (GET /debug/traces). Query parameters:
// route=<label> filters to one route, n=<count> caps the recent list.
func (c *Collector) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if v := r.URL.Query().Get("n"); v != "" {
			if parsed, err := strconv.Atoi(v); err == nil {
				n = parsed
			}
		}
		payload := c.Snapshot(r.URL.Query().Get("route"), n)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(payload); err != nil {
			// The header is already on the wire; nothing to send the client.
			slog.Debug("trace export encode failed", "err", err)
		}
	})
}
