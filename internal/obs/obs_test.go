package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Fatal("second lookup returned a different counter")
	}

	g := r.Gauge("a.gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	if r.Gauge("a.gauge") != g {
		t.Fatal("second lookup returned a different gauge")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 99, 100, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 || s.Sum != 5+10+11+99+100+5000 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	want := []uint64{2, 3, 0, 1} // ≤10, ≤100, ≤1000, +Inf
	for i, b := range s.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d (le=%d) = %d, want %d", i, b.Le, b.Count, want[i])
		}
	}
	if s.Buckets[3].Le != -1 {
		t.Fatalf("last bucket Le = %d, want -1 (+Inf)", s.Buckets[3].Le)
	}
	if got := s.Mean(); got != float64(s.Sum)/6 {
		t.Fatalf("mean = %v", got)
	}
	// Same name with different bounds returns the existing histogram.
	if r.Histogram("h", []int64{1}) != h {
		t.Fatal("histogram identity not stable across lookups")
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	// Shorthand: a snapshot with the given (le, count) buckets and derived
	// Count. Sum is irrelevant to Quantile.
	snap := func(buckets ...Bucket) HistogramSnapshot {
		s := HistogramSnapshot{Buckets: buckets}
		for _, b := range buckets {
			s.Count += b.Count
		}
		return s
	}
	nan := func() float64 { var z float64; return z / z }()

	cases := []struct {
		name string
		s    HistogramSnapshot
		q    float64
		want float64
	}{
		{"empty histogram", snap(Bucket{100, 0}, Bucket{-1, 0}), 0.5, 0},
		{"zero value snapshot", HistogramSnapshot{}, 0.5, 0},
		{"no buckets but nonzero count", HistogramSnapshot{Count: 5}, 0.5, 0},
		{"NaN q", snap(Bucket{100, 4}, Bucket{-1, 0}), nan, 0},
		{"q below zero clamps to min", snap(Bucket{100, 4}, Bucket{-1, 0}), -3, 0},
		{"q above one clamps to max bound", snap(Bucket{100, 4}, Bucket{-1, 0}), 7, 100},
		{"q zero is the lower edge", snap(Bucket{100, 4}, Bucket{-1, 0}), 0, 0},
		{"q one is the containing bound", snap(Bucket{100, 4}, Bucket{-1, 0}), 1, 100},
		{"single bucket interpolates", snap(Bucket{100, 1}, Bucket{-1, 0}), 0.5, 50},
		{"all mass in +Inf clamps to last bound", snap(Bucket{100, 0}, Bucket{-1, 3}), 0.99, 100},
		{"only a +Inf bucket returns zero", snap(Bucket{-1, 3}), 0.5, 0},
		{"median across two buckets", snap(Bucket{10, 2}, Bucket{20, 2}, Bucket{-1, 0}), 0.5, 10},
		{"p75 inside second bucket", snap(Bucket{10, 2}, Bucket{20, 2}, Bucket{-1, 0}), 0.75, 15},
		{"skips empty leading bucket", snap(Bucket{10, 0}, Bucket{20, 4}, Bucket{-1, 0}), 0.5, 15},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.Quantile(tc.q); got != tc.want {
				t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

func TestSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", []int64{10})
	c.Inc()
	h.Observe(3)

	snap := r.Snapshot()
	c.Add(10)
	h.Observe(4)
	h.Observe(400)

	if snap.Counters["c"] != 1 {
		t.Fatalf("snapshot counter mutated: %d", snap.Counters["c"])
	}
	hs := snap.Histograms["h"]
	if hs.Count != 1 || hs.Sum != 3 || hs.Buckets[0].Count != 1 || hs.Buckets[1].Count != 0 {
		t.Fatalf("snapshot histogram mutated: %+v", hs)
	}
	// Snapshots must be independently mutable without touching the registry.
	snap.Counters["c"] = 999
	if r.Snapshot().Counters["c"] != 11 {
		t.Fatal("mutating a snapshot leaked into the registry")
	}
}

func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", []int64{500}).Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("g").Value(); got != workers*perWorker {
		t.Fatalf("gauge = %d, want %d", got, workers*perWorker)
	}
	s := r.Histogram("h", nil).Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", s.Count, workers*perWorker)
	}
	if s.Buckets[0].Count+s.Buckets[1].Count != s.Count {
		t.Fatalf("bucket counts %v do not add up to %d", s.Buckets, s.Count)
	}
}

func TestTextDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.count").Add(2)
	r.Gauge("a.gauge").Set(-1)
	r.Histogram("m.h", []int64{100}).Observe(50)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"counter z.count 2\n",
		"gauge a.gauge -1\n",
		"histogram m.h count=1 sum=50 mean=50.00 p50=50 p99=99 le100:1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	// Lines are sorted: counter < gauge < histogram by prefix here.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "counter") || !strings.HasPrefix(lines[2], "histogram") {
		t.Fatalf("unexpected dump order: %q", lines)
	}

	// Extra lines are sorted in among the registry's, and the caller's
	// slice is left as it was.
	extra := make([]string, 2, 3)
	extra[0], extra[1] = "gauge b.extra 7", "aaa first"
	b.Reset()
	if err := r.WriteText(&b, extra...); err != nil {
		t.Fatal(err)
	}
	want := "aaa first\ncounter z.count 2\ngauge a.gauge -1\ngauge b.extra 7\n" +
		"histogram m.h count=1 sum=50 mean=50.00 p50=50 p99=99 le100:1\n"
	if b.String() != want {
		t.Fatalf("dump with extra lines:\n%s\nwant:\n%s", b.String(), want)
	}
	if extra[0] != "gauge b.extra 7" || extra[1] != "aaa first" {
		t.Fatalf("WriteText reordered the caller's lines: %q", extra)
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Histogram("h", []int64{10}).Observe(5)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["c"] != 1 || back.Histograms["h"].Count != 1 {
		t.Fatalf("round-trip lost data: %s", data)
	}
}
