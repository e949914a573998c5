// Package trace is the system's request-scoped tracing layer: a stdlib-only,
// allocation-conscious span tree carried through context.Context.
//
// A Trace is created once per request (by the HTTP middleware, or by a load
// generator) and rides the context; instrumented code opens named spans
// against it — sample, solve, sign, verify, commit, queue-wait — with
// monotonic durations and small key/value annotations (solver id, ring size,
// η-guard verdict, seed). When no trace is in the context every span
// operation is a no-op costing one context lookup, so tracing disabled is
// effectively free on the solver hot paths.
//
// Enabled tracing is engineered for the candidate sweep, which opens λ spans
// per request: span names, annotation keys and annotation string values are
// interned into a bounded collector-wide table, so a span record is a small
// pointer-free struct with fixed annotation slots. A finished trace is one
// no-scan allocation the garbage collector marks without walking — retaining
// hundreds of traces does not grow mark work against the solver's own
// allocation rate. The interning contract: annotation vocabulary is
// low-cardinality by design (solver ids, verdicts, outcomes); unbounded
// values belong in AnnotateInt, which stores the raw integer and formats it
// only at export.
//
// Finished traces land in a Collector: a bounded ring buffer of recent
// traces, the N slowest exemplars per route (full span trees retained), and
// per-stage aggregates, exported as JSON via the /debug/traces endpoint
// (obs.OperatorMux) and summarised to slog at Debug level.
//
// The package deliberately imports nothing module-local: internal/obs wires
// span durations into its registry histograms, so trace must stay below obs
// in the import graph.
package trace

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ctxKey keys the context's trace reference for foreign context chains. The
// common case never touches it: StartSpan returns a *spanCtx, and a nested
// StartSpan recovers the trace with one type assertion. Only when another
// context layer (WithCancel, WithValue) is stacked on top does the lookup
// fall back to Value, which spanCtx answers with a ctxRef.
type ctxKey struct{}

type ctxRef struct {
	t      *Trace
	parent int32
}

// spanCtx is the context returned by New and StartSpan: a concrete type
// carrying the trace and the current span index. Compared to
// context.WithValue it costs one allocation and no interface boxing, and the
// nested-span path skips the context chain walk entirely.
type spanCtx struct {
	context.Context
	t      *Trace
	parent int32
}

func (c *spanCtx) Value(k any) any {
	if _, ok := k.(ctxKey); ok {
		return ctxRef{t: c.t, parent: c.parent}
	}
	return c.Context.Value(k)
}

// ref recovers the trace reference from ctx: a type assertion when ctx is
// the spanCtx itself, a context walk when other layers sit on top.
func ref(ctx context.Context) ctxRef {
	if sc, ok := ctx.(*spanCtx); ok {
		return ctxRef{t: sc.t, parent: sc.parent}
	}
	r, _ := ctx.Value(ctxKey{}).(ctxRef)
	return r
}

// annot is one trace-level key/value annotation (shed reason, status). Spans
// use the interned annotRaw form; the handful of trace-level annotations
// keep plain strings.
type annot struct {
	Key string
	Val string
}

// annotRaw is one span annotation in interned form. key packs the interned
// key id together with the value kind: id+1 for a string annotation (sval is
// the value's intern id), -(id+1) for an integer one (ival is the raw value,
// formatted only at export). No pointers, so retained spans are no-scan
// memory.
type annotRaw struct {
	key  int32
	sval int32
	ival int64
}

// maxSpanAnnots is the fixed annotation capacity per span; the instrumented
// call sites use at most two (worker + ring size on a candidate, solver id +
// ring size on a solve) — per-request context like the sampler seed belongs
// in the trace-level annotations. Beyond it annotations are dropped and
// counted on the trace.
const maxSpanAnnots = 2

// spanData is one span's record inside its trace: 56 bytes, pointer-free.
// One cache line per span matters as much as the allocation count — the
// candidate sweep writes λ records per request, and every byte is a byte of
// the solver's working set evicted. Offsets are µs in int32: a request trace
// longer than ~35 minutes saturates rather than wrapping.
type spanData struct {
	name    int32 // interned span name
	parent  int32 // index of the parent span, -1 for a root child
	startUS int32 // offset from the trace start, monotonic
	endUS   int32 // -1 while open
	annots  [maxSpanAnnots]annotRaw
	na      uint8
}

// us32 saturates a µs offset into int32.
func us32(d int64) int32 {
	if d > 1<<31-1 {
		return 1<<31 - 1
	}
	return int32(d)
}

// Span storage is a fixed table of lazily-allocated chunks: a slot is
// claimed with one atomic add, then written only by the goroutine holding
// the Span handle (the single-writer contract behind the bind-and-defer-End
// idiom). No mutex, no realloc-and-copy growth — both
// matter at λ concurrent candidate spans per request. chunkSize×maxChunks
// caps the span budget.
const (
	chunkSize = 128
	maxChunks = 16
)

type spanChunk [chunkSize]spanData

// Trace is one request's span tree. Create with New; safe for concurrent
// use by the request's worker goroutines (the candidate executor opens spans
// from several workers at once). Readers (export, breakdown) only see a
// trace after Finish, which happens after every span has ended — that
// ordering, not a lock, is what publishes the slot writes.
type Trace struct {
	collector *Collector
	route     string
	start     time.Time // wall clock; carries the monotonic reading

	nSpans        atomic.Int32 // claimed slots; may overshoot the budget
	dropped       atomic.Int32 // spans past the budget
	droppedAnnots atomic.Int32 // annotations past a span's fixed slots
	chunks        [maxChunks]atomic.Pointer[spanChunk]

	mu       sync.Mutex // guards the trace-level fields below, not spans
	annots   []annot
	finished bool
	durUS    int64
	status   string
}

// spanCount is the number of materialized spans.
func (t *Trace) spanCount() int {
	n := int(t.nSpans.Load())
	if m := t.collector.maxSpans; n > m {
		n = m
	}
	return n
}

// slot returns span i's record, allocating its chunk on first touch.
func (t *Trace) slot(i int32) *spanData {
	ci := i / chunkSize
	ch := t.chunks[ci].Load()
	if ch == nil {
		nc := new(spanChunk)
		if t.chunks[ci].CompareAndSwap(nil, nc) {
			ch = nc
		} else {
			ch = t.chunks[ci].Load()
		}
	}
	return &ch[i%chunkSize]
}

// slotRead is slot for readers: nil while the owner has not allocated the
// chunk yet (only possible for in-flight traces, which readers never see).
func (t *Trace) slotRead(i int) *spanData {
	ch := t.chunks[i/chunkSize].Load()
	if ch == nil {
		return nil
	}
	return &ch[i%chunkSize]
}

// New starts a trace for route and attaches it to the context. When the
// collector is nil or disabled it returns the context unchanged and a nil
// trace — all methods on a nil *Trace are no-ops, so callers never branch.
func New(ctx context.Context, c *Collector, route string) (context.Context, *Trace) {
	if c == nil || !c.Enabled() {
		return ctx, nil
	}
	t := &Trace{
		collector: c,
		route:     route,
		start:     time.Now(),
	}
	return &spanCtx{Context: ctx, t: t, parent: -1}, t
}

// FromContext returns the context's trace, or nil when none is attached.
func FromContext(ctx context.Context) *Trace {
	return ref(ctx).t
}

// Annotate attaches a root-level key/value to the trace (shed reason,
// status). No-op on a nil trace.
func (t *Trace) Annotate(key, val string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.annots = append(t.annots, annot{Key: key, Val: val})
	t.mu.Unlock()
}

// AnnotateInt attaches a root-level integer key/value to the trace
// (sampler seed, population size) — per-request context that does not
// belong on the fixed per-span annotation slots. No-op on a nil trace.
func (t *Trace) AnnotateInt(key string, v int64) {
	if t == nil {
		return
	}
	t.Annotate(key, strconv.FormatInt(v, 10))
}

// Finish seals the trace with a status label and hands it to the collector
// (ring buffer, exemplars, slog at Debug). Only the first call records;
// no-op on a nil trace.
func (t *Trace) Finish(status string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	t.status = status
	t.durUS = time.Since(t.start).Microseconds()
	t.mu.Unlock()
	t.collector.record(t)
}

// Span is a handle on one span of a trace. The zero value (no trace in the
// context) is a valid no-op span, which is what keeps disabled tracing off
// the hot path.
type Span struct {
	t *Trace
	i int32
}

// StartSpan opens a named span under the context's current span and returns
// the child context carrying it. Without a trace in ctx (or with the trace's
// span budget exhausted) it returns ctx unchanged and a no-op span.
//
// Every started span must be closed on all paths: `defer sp.End()` (directly
// or inside one deferred function literal) is the required idiom.
func StartSpan(ctx context.Context, name string) (context.Context, Span) {
	r := ref(ctx)
	if r.t == nil {
		return ctx, Span{}
	}
	idx, ok := r.t.startSpan(name, r.parent)
	if !ok {
		return ctx, Span{}
	}
	return &spanCtx{Context: ctx, t: r.t, parent: idx}, Span{t: r.t, i: idx}
}

// StartChild opens a named span under the context's current span without
// deriving a child context — the leaf-span form for call sites that never
// nest further work under the span (the per-candidate solver invocations,
// sign/verify). It skips StartSpan's context allocation, which matters λ
// times per request. Lifecycle rules are identical: bind the span and defer
// its End.
func StartChild(ctx context.Context, name string) Span {
	r := ref(ctx)
	if r.t == nil {
		return Span{}
	}
	idx, ok := r.t.startSpan(name, r.parent)
	if !ok {
		return Span{}
	}
	return Span{t: r.t, i: idx}
}

func (t *Trace) startSpan(name string, parent int32) (int32, bool) {
	off := us32(time.Since(t.start).Microseconds())
	id := t.collector.intern.id(name)
	n := t.nSpans.Add(1) - 1
	if int(n) >= t.collector.maxSpans {
		t.dropped.Add(1)
		return 0, false
	}
	sd := t.slot(n)
	sd.name, sd.parent, sd.startUS, sd.endUS, sd.na = id, parent, off, -1, 0
	return n, true
}

// End closes the span, fixing its monotonic duration. Only the first End
// records; no-op on the zero span.
func (s Span) End() {
	if s.t == nil {
		return
	}
	off := us32(time.Since(s.t.start).Microseconds())
	sd := s.t.slot(s.i)
	if sd.endUS >= 0 {
		return
	}
	sd.endUS = off
	s.t.collector.recordSpan(sd.name, int64(off-sd.startUS))
}

// Annotate attaches a key/value to the span. Both key and value are interned
// into the collector's bounded table — use it for the low-cardinality
// vocabulary (solver id, verdict, outcome) and AnnotateInt for numbers.
// No-op on the zero span.
func (s Span) Annotate(key, val string) {
	if s.t == nil {
		return
	}
	in := s.t.collector.intern
	s.annotate(annotRaw{key: in.id(key) + 1, sval: in.id(val)})
}

// AnnotateInt attaches an integer annotation to the span. The value is kept
// raw and formatted only at export, keeping strconv off the solver loops.
func (s Span) AnnotateInt(key string, v int64) {
	if s.t == nil {
		return
	}
	s.annotate(annotRaw{key: -(s.t.collector.intern.id(key) + 1), ival: v})
}

func (s Span) annotate(a annotRaw) {
	sd := s.t.slot(s.i)
	if int(sd.na) < len(sd.annots) {
		sd.annots[sd.na] = a
		sd.na++
	} else {
		s.t.droppedAnnots.Add(1)
	}
}

// interner maps the span vocabulary (names, annotation keys, annotation
// string values) to dense int32 ids. Both directions are immutable
// copy-on-write tables swapped atomically: the id path is one plain map read
// (no locking, no interface boxing), the reverse path one slice index, and
// neither ever blocks on the rare insert. The table is bounded: past
// internLimit distinct strings every new string maps to id 0, which decodes
// to an explicit overflow marker rather than growing without limit —
// annotation vocabulary is low-cardinality by design.
type interner struct {
	mu  sync.Mutex
	ids atomic.Pointer[map[string]int32]
	rev atomic.Pointer[[]string]
}

const internLimit = 4096

// internOverflow is the string id 0 decodes to.
const internOverflow = "!interned-overflow"

func newInterner() *interner {
	in := &interner{}
	ids := map[string]int32{}
	rev := []string{internOverflow}
	in.ids.Store(&ids)
	in.rev.Store(&rev)
	return in
}

// id returns the dense id for s, allocating one on first use.
func (in *interner) id(s string) int32 {
	if v, ok := (*in.ids.Load())[s]; ok {
		return v
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	cur := *in.ids.Load()
	if v, ok := cur[s]; ok {
		return v
	}
	rev := *in.rev.Load()
	if len(rev) >= internLimit {
		return 0
	}
	id := int32(len(rev))
	nextRev := make([]string, len(rev)+1)
	copy(nextRev, rev)
	nextRev[len(rev)] = s
	nextIDs := make(map[string]int32, len(cur)+1)
	for k, v := range cur {
		nextIDs[k] = v
	}
	nextIDs[s] = id
	in.rev.Store(&nextRev)
	in.ids.Store(&nextIDs)
	return id
}

// lookup decodes an id; unknown ids decode to the overflow marker.
func (in *interner) lookup(id int32) string {
	rev := *in.rev.Load()
	if id < 0 || int(id) >= len(rev) {
		return internOverflow
	}
	return rev[id]
}

// keyName decodes the annotation's key.
func (a annotRaw) keyName(in *interner) string {
	k := a.key
	if k < 0 {
		k = -k
	}
	return in.lookup(k - 1)
}

// value renders a span annotation's exported string form.
func (a annotRaw) value(in *interner) string {
	if a.key < 0 {
		return strconv.FormatInt(a.ival, 10)
	}
	return in.lookup(a.sval)
}
