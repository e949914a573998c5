package operator

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"regexp"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"testing"

	"tokenmagic/internal/obs"
)

func TestMux(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("op.test").Inc()
	mux := Mux(r, true)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for path, want := range map[string]string{
		"/debug/metrics": "counter op.test 1",
		"/debug/pprof/":  "profiles",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || !strings.Contains(string(body), want) {
			t.Fatalf("%s: status=%d body=%q", path, resp.StatusCode, body)
		}
	}
	// /debug/vars serves JSON; the published registry may be the one from an
	// earlier publishExpvar call (process-global), so only check it parses.
	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["tokenmagic"]; !ok {
		t.Fatalf("/debug/vars missing tokenmagic var: %v", vars)
	}
}

// TestMetricsHandlerRuntimeGauges: a scrape of /debug/metrics carries the
// runtime's goroutine, run-queue latency and live-heap gauges, read at
// scrape time, sorted in among the registry's lines; without them the
// scrape is the registry's WriteText byte for byte, which stays the
// registry alone.
func TestMetricsHandlerRuntimeGauges(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("z.count").Add(2)
	r.Gauge("a.gauge").Set(-1)
	r.Histogram("m.h", []int64{100}).Observe(50)
	runtime.GC() // the live heap is the last GC's reading
	srv := httptest.NewServer(metricsHandler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	dump := string(body)
	for _, pattern := range []string{
		`(?m)^gauge runtime\.goroutines [1-9][0-9]*$`,
		`(?m)^gauge runtime\.sched\.latency_us\.p50 [0-9]+$`,
		`(?m)^gauge runtime\.sched\.latency_us\.p99 [0-9]+$`,
		`(?m)^gauge runtime\.heap\.live_bytes [1-9][0-9]*$`,
	} {
		if !regexp.MustCompile(pattern).MatchString(dump) {
			t.Errorf("scrape missing %q:\n%s", pattern, dump)
		}
	}
	lines := strings.Split(strings.TrimSuffix(dump, "\n"), "\n")
	if !sort.StringsAreSorted(lines) {
		t.Fatalf("scrape lines are not sorted:\n%s", dump)
	}
	var own strings.Builder
	for _, l := range lines {
		if !strings.HasPrefix(l, "gauge runtime.") {
			own.WriteString(l + "\n")
		}
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if own.String() != b.String() {
		t.Fatalf("scrape without the runtime gauges:\n%s\nWriteText:\n%s", own.String(), b.String())
	}
	if strings.Contains(b.String(), "runtime.") {
		t.Fatalf("WriteText printed runtime gauges:\n%s", b.String())
	}
}

// TestRuntimeQuantile: the quantile is the upper bound of the bucket that
// reaches the rank, the lower bound of an open top bucket, and 0 when
// nothing was observed.
func TestRuntimeQuantile(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{1, 8, 0, 1},
		Buckets: []float64{math.Inf(-1), 1e-6, 1e-5, 1e-4, math.Inf(1)},
	}
	for _, tc := range []struct{ q, want float64 }{{0.05, 1e-6}, {0.5, 1e-5}, {0.9, 1e-5}, {0.99, 1e-4}} {
		if got := runtimeQuantile(h, tc.q); got != tc.want {
			t.Errorf("q=%v: got %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := runtimeQuantile(&metrics.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}, 0.5); got != 0 {
		t.Errorf("empty histogram: got %v, want 0", got)
	}
}
