// Package trace is the system's request-scoped tracing layer: a stdlib-only
// span tree carried through context.Context.
//
// A Trace is created once per request (by the HTTP middleware, or by a load
// generator) and rides the context; instrumented code opens named spans
// against it — queue-wait, batch-wait, sample, sign, verify-sig, verify,
// commit — with monotonic durations and small key/value annotations (ring
// size, η-guard verdict, solve tallies). When no trace is in the context
// every span operation is a no-op costing one context lookup, so tracing
// disabled is effectively free.
//
// A span marks a pipeline stage, not a unit of work inside one: Algorithm 1's
// per-candidate solves are counted and timed by the framework's solve
// histogram and summed onto their sample span. A spend therefore opens one
// span per stage, all from its own goroutine, and a trace is a plain slice
// of records under one mutex. The span budget (maxSpans) bounds what a
// runaway request can retain; spans past it are dropped and counted.
//
// Finished traces land in a Collector: a bounded ring buffer of recent
// traces, the N slowest exemplars per route (full span trees retained), and
// per-stage aggregates, exported as JSON via the /debug/traces endpoint
// (operator.Mux) and summarised to slog at Debug level.
//
// The package deliberately imports nothing module-local: internal/obs wires
// span durations into its registry histograms, so trace must stay below obs
// in the import graph.
package trace

import (
	"context"
	"strconv"
	"sync"
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

// annot is one key/value annotation, on a span or on the trace itself.
type annot struct {
	Key string
	Val string
}

// spanRec is one span's record inside its trace. Offsets are µs from the
// trace start, monotonic.
type spanRec struct {
	name    string
	parent  int32 // index of the parent span, -1 for a root child
	startUS int64
	endUS   int64 // -1 while open
	annots  []annot
}

// Trace is one request's span tree. Create with New; safe for concurrent
// use, though the pipeline opens every span from the request goroutine.
type Trace struct {
	collector *Collector
	route     string
	start     time.Time // wall clock; carries the monotonic reading

	mu       sync.Mutex // guards everything below
	spans    []spanRec
	dropped  int // spans past the budget
	annots   []annot
	finished bool
	durUS    int64
	status   string
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

// Annotate attaches a root-level key/value to the trace (shed reason).
// No-op on a nil trace.
func (t *Trace) Annotate(key, val string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.annots = append(t.annots, annot{Key: key, Val: val})
	t.mu.Unlock()
}

// AnnotateInt is Annotate for an integer value. No-op on a nil trace.
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

func (t *Trace) startSpan(name string, parent int32) (int32, bool) {
	off := time.Since(t.start).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0, false
	}
	t.spans = append(t.spans, spanRec{name: name, parent: parent, startUS: off, endUS: -1})
	return int32(len(t.spans) - 1), true
}

// End closes the span, fixing its monotonic duration. Only the first End
// records; no-op on the zero span.
func (s Span) End() {
	if s.t == nil {
		return
	}
	off := time.Since(s.t.start).Microseconds()
	s.t.mu.Lock()
	sr := &s.t.spans[s.i]
	if sr.endUS >= 0 {
		s.t.mu.Unlock()
		return
	}
	sr.endUS = off
	name, dur := sr.name, off-sr.startUS
	s.t.mu.Unlock()
	s.t.collector.recordSpan(name, dur)
}

// Annotate attaches a key/value to the span. No-op on the zero span.
func (s Span) Annotate(key, val string) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	sr := &s.t.spans[s.i]
	sr.annots = append(sr.annots, annot{Key: key, Val: val})
	s.t.mu.Unlock()
}

// AnnotateInt is Annotate for an integer value. No-op on the zero span.
func (s Span) AnnotateInt(key string, v int64) {
	if s.t == nil {
		return
	}
	s.Annotate(key, strconv.FormatInt(v, 10))
}
