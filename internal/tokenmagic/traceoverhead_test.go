package tokenmagic

import (
	"context"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs/trace"
)

// traceBenchFramework builds the λ=200 randomized GenerateRS workload the
// overhead measurements run against: the serving path's largest candidate
// sweep, which the trace records as one sample span carrying the sweep's
// solve tallies.
func traceBenchFramework(tb testing.TB) (*Framework, diversity.Requirement) {
	tb.Helper()
	l := samplingLedger(tb, 40)
	cfg := Config{Lambda: 200, Headroom: true, Algorithm: Progressive, Randomize: true}
	f, err := New(l, cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		tb.Fatal(err)
	}
	return f, diversity.Requirement{C: 1, L: 3}
}

// benchGenerateRSTraced measures GenerateRSContext with the default trace
// collector forced to the given state and the request carrying a live trace
// (the serving path: InstrumentHTTP roots one per request). Run the pair
//
//	go test ./internal/tokenmagic -bench TraceOverhead -benchtime 2s
//
// to compare: with the collector disabled every StartSpan returns the
// zero-value no-op span, so "Disabled" must sit within noise of a build
// without any instrumentation, and "Enabled" is the full recording cost.
//
// Caveat: on a shared machine the two benchmarks run minutes apart and
// drift between them easily exceeds the signal. TestTraceOverheadPaired
// below is the measurement of record — it interleaves the two states in
// order-balanced rounds so drift cancels in the median.
func benchGenerateRSTraced(b *testing.B, enabled bool) {
	b.Helper()
	col := trace.Default()
	prev := col.Enabled()
	col.SetEnabled(enabled)
	defer col.SetEnabled(prev)

	f, req := traceBenchFramework(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, tr := trace.New(context.Background(), col, "bench.generate")
		if _, err := f.GenerateRSContext(ctx, 0, req); err != nil {
			b.Fatal(err)
		}
		tr.Finish("ok")
	}
}

func BenchmarkGenerateRSTraceOverheadDisabled(b *testing.B) {
	benchGenerateRSTraced(b, false)
}

func BenchmarkGenerateRSTraceOverheadEnabled(b *testing.B) {
	benchGenerateRSTraced(b, true)
}

// TestTraceOverheadPaired is the enabled-tracing overhead acceptance check:
// the median enabled/disabled ratio over order-balanced paired rounds must
// stay ≤1.05. Each round times K requests in both collector states,
// alternating which state goes first, so monotonic machine drift (shared
// runners slow down on the minute scale by more than the signal) biases
// alternate rounds in opposite directions and cancels in the median.
//
// The run takes several seconds, so it is opt-in: TM_PERF=1 go test
// ./internal/tokenmagic -run TraceOverheadPaired -v
func TestTraceOverheadPaired(t *testing.T) {
	if os.Getenv("TM_PERF") == "" {
		t.Skip("perf measurement; set TM_PERF=1 to run")
	}
	col := trace.Default()
	prev := col.Enabled()
	defer col.SetEnabled(prev)

	f, req := traceBenchFramework(t)
	measure := func(enabled bool, ops int) time.Duration {
		col.SetEnabled(enabled)
		start := time.Now()
		for i := 0; i < ops; i++ {
			ctx, tr := trace.New(context.Background(), col, "bench.generate")
			if _, err := f.GenerateRSContext(ctx, 0, req); err != nil {
				t.Fatal(err)
			}
			tr.Finish("ok")
		}
		return time.Since(start)
	}
	measure(true, 50) // warm both paths
	measure(false, 50)

	const K, R = 100, 12
	ratios := make([]float64, 0, R)
	for r := 0; r < R; r++ {
		var d, e time.Duration
		if r%2 == 0 {
			d = measure(false, K)
			e = measure(true, K)
		} else {
			e = measure(true, K)
			d = measure(false, K)
		}
		ratios = append(ratios, float64(e)/float64(d))
	}
	sort.Float64s(ratios)
	median := (ratios[R/2-1] + ratios[R/2]) / 2
	t.Logf("enabled/disabled ratios (sorted): %.3v", ratios)
	t.Logf("median overhead: %+.2f%%", (median-1)*100)
	if median > 1.05 {
		t.Errorf("enabled tracing overhead %+.2f%% exceeds the 5%% budget", (median-1)*100)
	}
}
