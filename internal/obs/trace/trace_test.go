package trace

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestNoTraceInContextIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "sample")
	if ctx2 != ctx {
		t.Error("StartSpan without a trace must return the context unchanged")
	}
	// All of these must be safe no-ops.
	sp.Annotate("k", "v")
	sp.AnnotateInt("n", 7)
	sp.End()
	var nilTrace *Trace
	nilTrace.Annotate("k", "v")
	nilTrace.Finish("ok")
	if FromContext(ctx) != nil {
		t.Error("FromContext on a bare context must be nil")
	}
}

func TestDisabledCollectorCreatesNoTrace(t *testing.T) {
	c := NewCollector()
	c.SetEnabled(false)
	ctx, tr := New(context.Background(), c, "r")
	if tr != nil {
		t.Fatal("disabled collector must not create traces")
	}
	if FromContext(ctx) != nil {
		t.Fatal("disabled collector must leave the context unchanged")
	}
}

func TestSpanTreeAndExport(t *testing.T) {
	c := NewCollector()
	ctx, tr := New(context.Background(), c, "nodesvc.v1_spend")
	if tr == nil {
		t.Fatal("enabled collector must create a trace")
	}
	_, sample := StartSpan(ctx, "sample")
	sample.AnnotateInt("universe", 40)
	sample.End()
	ctx1, commit := StartSpan(ctx, "commit")
	_, verify := StartSpan(ctx1, "verify")
	verify.Annotate("verdict", "admit")
	verify.End()
	commit.End()
	tr.Annotate("shed", "none")
	tr.Finish("200")
	tr.Finish("500") // second Finish must not re-record

	p := c.Snapshot("", 0)
	if p.Total != 1 {
		t.Fatalf("total = %d, want 1", p.Total)
	}
	if len(p.Recent) != 1 {
		t.Fatalf("recent = %d, want 1", len(p.Recent))
	}
	got := p.Recent[0]
	if got.Status != "200" {
		t.Errorf("status = %q, want 200 (first Finish wins)", got.Status)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(got.Spans))
	}
	if got.Spans[0].Name != "sample" || got.Spans[0].Parent != -1 {
		t.Errorf("span 0 = %+v, want root sample", got.Spans[0])
	}
	if got.Spans[1].Name != "commit" || got.Spans[1].Parent != -1 {
		t.Errorf("span 1 = %+v, want root commit", got.Spans[1])
	}
	if got.Spans[2].Name != "verify" || got.Spans[2].Parent != 1 {
		t.Errorf("span 2 = %+v, want verify under commit", got.Spans[2])
	}
	if got.Spans[0].Annotations["universe"] != "40" {
		t.Errorf("sample annotations = %v", got.Spans[0].Annotations)
	}
	if got.Spans[2].Annotations["verdict"] != "admit" {
		t.Errorf("verify annotations = %v", got.Spans[2].Annotations)
	}
	for _, s := range got.Spans {
		if s.DurUS < 0 {
			t.Errorf("span %s never ended", s.Name)
		}
	}
	if got.Annotations["shed"] != "none" {
		t.Errorf("trace annotations = %v", got.Annotations)
	}
	if p.Stages["verify"].Count != 1 || p.Stages["sample"].Count != 1 {
		t.Errorf("stages = %v", p.Stages)
	}
}

func TestSpanBudgetDropsAndCounts(t *testing.T) {
	c := NewCollector()
	ctx, tr := New(context.Background(), c, "r")
	for i := 0; i < maxSpans+6; i++ {
		_, sp := StartSpan(ctx, "sample")
		sp.End()
	}
	tr.Finish("200")
	got := c.Snapshot("", 0).Recent[0]
	if len(got.Spans) != maxSpans {
		t.Errorf("spans = %d, want %d (budget)", len(got.Spans), maxSpans)
	}
	if got.Dropped != 6 {
		t.Errorf("dropped = %d, want 6", got.Dropped)
	}
	if st := c.StageSnapshot()["sample"]; st.Count != maxSpans {
		t.Errorf("sample stage count = %d, want %d: dropped spans must not record", st.Count, maxSpans)
	}
}

// A trace that overflows the budget raises the collector-wide total,
// which /debug/traces reports at the top level.
func TestDroppedSpansTotal(t *testing.T) {
	c := NewCollector()
	for round := int64(1); round <= 2; round++ {
		ctx, tr := New(context.Background(), c, "r")
		for i := 0; i < maxSpans+3; i++ {
			_, sp := StartSpan(ctx, "sample")
			sp.End()
		}
		tr.Finish("200")
		if got := c.DroppedSpans(); got != 3*round {
			t.Fatalf("after trace %d: dropped total = %d, want %d", round, got, 3*round)
		}
	}
	if p := c.Snapshot("", 0); p.Dropped != 6 {
		t.Errorf("payload dropped_spans = %d, want 6", p.Dropped)
	}
}

func TestExemplarsKeepSlowestPerRoute(t *testing.T) {
	c := NewCollector()
	c.exemplars = 2
	for i := 0; i < 5; i++ {
		_, tr := New(context.Background(), c, "a")
		tr.durUS = int64(i) // direct: fake increasing durations
		tr.mu.Lock()
		tr.finished = true
		tr.status = "200"
		tr.mu.Unlock()
		c.record(tr)
	}
	p := c.Snapshot("a", 0)
	slow := p.Slowest["a"]
	if len(slow) != 2 {
		t.Fatalf("exemplars = %d, want 2", len(slow))
	}
	if slow[0].DurUS != 4 || slow[1].DurUS != 3 {
		t.Errorf("slowest durations = %d,%d want 4,3", slow[0].DurUS, slow[1].DurUS)
	}
}

func TestRingBufferBounded(t *testing.T) {
	c := NewCollector()
	c.ringSize = 3
	for i := 0; i < 7; i++ {
		_, tr := New(context.Background(), c, "r")
		tr.Finish("200")
	}
	p := c.Snapshot("", 0)
	if p.Total != 7 {
		t.Errorf("total = %d, want 7", p.Total)
	}
	if len(p.Recent) != 3 {
		t.Errorf("recent = %d, want 3 (ring bound)", len(p.Recent))
	}
}

func TestStageObserver(t *testing.T) {
	c := NewCollector()
	var mu sync.Mutex
	seen := map[string]int{}
	c.SetStageObserver(func(stage string, durUS int64) {
		mu.Lock()
		seen[stage]++
		mu.Unlock()
	})
	ctx, tr := New(context.Background(), c, "r")
	_, sp := StartSpan(ctx, "sign")
	sp.End()
	sp.End() // double End must record once
	tr.Finish("200")
	if seen["sign"] != 1 {
		t.Errorf("observer saw sign %d times, want 1", seen["sign"])
	}

	c.SetStageObserver(nil)
	ctx2, tr2 := New(context.Background(), c, "r")
	_, sp2 := StartSpan(ctx2, "sign")
	sp2.End()
	tr2.Finish("200")
	if seen["sign"] != 1 {
		t.Errorf("cleared observer still called: sign seen %d times", seen["sign"])
	}
	if st := c.StageSnapshot()["sign"]; st.Count != 2 {
		t.Errorf("sign stage count = %d, want 2", st.Count)
	}
}

// Trace stays safe for concurrent use: run under -race, goroutines racing
// on one trace lose no span to anything but the budget.
func TestConcurrentSpans(t *testing.T) {
	c := NewCollector()
	ctx, tr := New(context.Background(), c, "r")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, sp := StartSpan(ctx, "sign")
				sp.AnnotateInt("worker", int64(w))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	tr.Finish("200")
	got := c.Snapshot("", 0).Recent[0]
	if len(got.Spans) != maxSpans || got.Dropped != 400-maxSpans {
		t.Errorf("spans = %d, dropped = %d, want %d and %d", len(got.Spans), got.Dropped, maxSpans, 400-maxSpans)
	}
}

func TestHandlerJSON(t *testing.T) {
	c := NewCollector()
	ctx, tr := New(context.Background(), c, "nodesvc.v1_spend")
	_, sp := StartSpan(ctx, "sample")
	sp.End()
	tr.Finish("200")

	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?n=1", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var p DebugPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if !p.Enabled || p.Total != 1 || len(p.Recent) != 1 {
		t.Errorf("payload = enabled=%v total=%d recent=%d", p.Enabled, p.Total, len(p.Recent))
	}
	if len(p.Slowest["nodesvc.v1_spend"]) != 1 {
		t.Errorf("slowest = %v", p.Slowest)
	}

	// Route filter keeps unrelated routes out.
	rec = httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?route=other", nil))
	var filtered DebugPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &filtered); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(filtered.Recent) != 0 || len(filtered.Slowest) != 0 {
		t.Errorf("route filter leaked traces: %+v", filtered)
	}
}
