package trace

import (
	"context"
	"encoding/json"
	"log/slog"
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
	// stageFactory, when set, builds one duration observer per stage name
	// (internal/obs returns a registry histogram's Observe). The observer is
	// cached on the stage's aggregate, so the per-span path never touches a
	// map or a name string.
	stageFactory atomic.Pointer[func(name string) func(durUS int64)]

	maxSpans  int // per-trace span budget; beyond it spans are dropped, counted
	ringSize  int // recent traces retained
	exemplars int // slowest traces retained per route

	// intern holds the collector-wide vocabulary table span records index
	// into; see the package comment for the cardinality contract.
	intern *interner

	// stages indexes *stageAgg by interned span name id — a dense
	// copy-on-write slice, so the per-span record path is one atomic load
	// plus an array index, which matters at λ candidate spans per request.
	stages   atomic.Pointer[[]*stageAgg]
	stagesMu sync.Mutex

	mu      sync.Mutex
	ring    []*Trace
	next    int
	total   uint64
	dropped int64               // spans past the budget, over all finished traces
	slow    map[string][]*Trace // route → slowest-first exemplars
}

// StageStats aggregates the ended spans of one name across all traces.
type StageStats struct {
	Count   int64 `json:"count"`
	TotalUS int64 `json:"total_us"`
	MaxUS   int64 `json:"max_us"`
}

// stageAgg is the live, atomically-updated form of StageStats, plus the
// wired per-stage observer (histogram Observe), cached here so recording a
// span costs no lookups.
type stageAgg struct {
	count, total, max atomic.Int64
	obs               atomic.Pointer[func(durUS int64)]
}

func (a *stageAgg) observe(durUS int64) {
	a.count.Add(1)
	a.total.Add(durUS)
	for {
		cur := a.max.Load()
		if durUS <= cur || a.max.CompareAndSwap(cur, durUS) {
			return
		}
	}
}

func (a *stageAgg) snapshot() StageStats {
	return StageStats{Count: a.count.Load(), TotalUS: a.total.Load(), MaxUS: a.max.Load()}
}

// MeanUS is the average span duration in microseconds (0 when empty).
func (s StageStats) MeanUS() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.TotalUS) / float64(s.Count)
}

// Collector sizing: the span budget covers a full Monero-scale candidate
// sweep (λ=800 → one candidate plus one solve span per batch token) with
// headroom; ring and exemplar counts bound worst-case retention to a few MB.
const (
	defaultMaxSpans  = 2048
	defaultRingSize  = 32
	defaultExemplars = 5
)

// NewCollector returns an enabled collector with default bounds.
func NewCollector() *Collector {
	c := &Collector{
		maxSpans:  defaultMaxSpans,
		ringSize:  defaultRingSize,
		exemplars: defaultExemplars,
		intern:    newInterner(),
		slow:      make(map[string][]*Trace),
	}
	stages := []*stageAgg{}
	c.stages.Store(&stages)
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

// SetStageObserver installs the per-stage observer factory (nil clears it):
// each stage name gets one observer, called with every ended span's duration.
// Already-seen stages are re-wired immediately.
func (c *Collector) SetStageObserver(factory func(name string) func(durUS int64)) {
	c.stagesMu.Lock()
	defer c.stagesMu.Unlock()
	if factory == nil {
		c.stageFactory.Store(nil)
	} else {
		c.stageFactory.Store(&factory)
	}
	for id, agg := range *c.stages.Load() {
		if agg == nil {
			continue
		}
		if factory == nil {
			agg.obs.Store(nil)
			continue
		}
		obs := factory(c.intern.lookup(int32(id)))
		agg.obs.Store(&obs)
	}
}

// recordSpan folds one ended span into its stage aggregate and the stage's
// wired observer: an atomic slice load, an array index, four atomic adds.
func (c *Collector) recordSpan(nameID int32, durUS int64) {
	stages := *c.stages.Load()
	var agg *stageAgg
	if int(nameID) < len(stages) {
		agg = stages[nameID]
	}
	if agg == nil {
		agg = c.growStage(nameID)
	}
	agg.observe(durUS)
	if fn := agg.obs.Load(); fn != nil {
		(*fn)(durUS)
	}
}

// growStage creates the aggregate for a first-seen stage, wiring its
// observer from the factory, and publishes a copy of the dense slice.
func (c *Collector) growStage(nameID int32) *stageAgg {
	c.stagesMu.Lock()
	defer c.stagesMu.Unlock()
	cur := *c.stages.Load()
	if int(nameID) < len(cur) && cur[nameID] != nil {
		return cur[nameID]
	}
	n := len(cur)
	if int(nameID)+1 > n {
		n = int(nameID) + 1
	}
	next := make([]*stageAgg, n)
	copy(next, cur)
	agg := &stageAgg{}
	if factory := c.stageFactory.Load(); factory != nil {
		obs := (*factory)(c.intern.lookup(nameID))
		agg.obs.Store(&obs)
	}
	next[nameID] = agg
	c.stages.Store(&next)
	return agg
}

// StageSnapshot copies the per-stage aggregates (load generators diff two
// snapshots around their measure window).
func (c *Collector) StageSnapshot() map[string]StageStats {
	out := make(map[string]StageStats)
	for id, agg := range *c.stages.Load() {
		if agg != nil {
			out[c.intern.lookup(int32(id))] = agg.snapshot()
		}
	}
	return out
}

// record files a finished trace into the ring and the per-route exemplars,
// and summarises it to slog when Debug logging is on.
func (c *Collector) record(t *Trace) {
	c.mu.Lock()
	if len(c.ring) < c.ringSize {
		c.ring = append(c.ring, t)
	} else {
		c.ring[c.next] = t
	}
	c.next = (c.next + 1) % c.ringSize
	c.total++
	c.dropped += int64(t.dropped.Load())

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
		slog.Debug("trace finished",
			"route", t.route,
			"status", t.status,
			"dur_us", t.durUS,
			"spans", t.spanCount(),
			"breakdown", t.breakdown())
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
// descending total — the one-line view of where the request's time went.
func (t *Trace) breakdown() string {
	in := t.collector.intern
	totals := make(map[int32]int64)
	for i, n := 0, t.spanCount(); i < n; i++ {
		sd := t.slotRead(i)
		if sd != nil && sd.endUS >= 0 {
			totals[sd.name] += int64(sd.endUS - sd.startUS)
		}
	}
	type kv struct {
		name string
		us   int64
	}
	parts := make([]kv, 0, len(totals))
	for id, us := range totals {
		parts = append(parts, kv{in.lookup(id), us})
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
	return b.String()
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
	DroppedAnns int               `json:"dropped_annotations,omitempty"`
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

// spanAnnotMap decodes a span's interned annotation slots.
func spanAnnotMap(in *interner, annots []annotRaw) map[string]string {
	if len(annots) == 0 {
		return nil
	}
	m := make(map[string]string, len(annots))
	for _, a := range annots {
		m[a.keyName(in)] = a.value(in)
	}
	return m
}

// export snapshots one trace into its JSON form, decoding the interned span
// records back to strings.
func (t *Trace) export() TraceJSON {
	in := t.collector.intern
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.spanCount()
	out := TraceJSON{
		Route:       t.route,
		Start:       t.start,
		DurUS:       t.durUS,
		Status:      t.status,
		Dropped:     int(t.dropped.Load()),
		DroppedAnns: int(t.droppedAnnots.Load()),
		Annotations: annotMap(t.annots),
		Spans:       make([]SpanJSON, 0, n),
	}
	for i := 0; i < n; i++ {
		sd := t.slotRead(i)
		if sd == nil {
			continue
		}
		dur := int64(-1)
		if sd.endUS >= 0 {
			dur = int64(sd.endUS - sd.startUS)
		}
		out.Spans = append(out.Spans, SpanJSON{
			Name:        in.lookup(sd.name),
			Parent:      sd.parent,
			StartUS:     int64(sd.startUS),
			DurUS:       dur,
			Annotations: spanAnnotMap(in, sd.annots[:sd.na]),
		})
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
