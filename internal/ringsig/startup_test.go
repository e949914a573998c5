package ringsig

// Tests of the start-up pools: GenerateKeys against n GenerateKey calls on
// one stream and across GOMAXPROCS, and Precompute against a sequential
// memo fill. Run them at both widths — `go test -cpu 1,2 -run
// 'GenerateKeys|Precompute'` — so the inline path is covered as well as
// the worker pool.

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"
)

// sameKeys reports the first index where two key lists differ, -1 if none.
func sameKeys(a, b []*PrivateKey) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if a[i].D.Cmp(b[i].D) != 0 || !a[i].Public.Equal(b[i].Public) {
			return i
		}
	}
	return -1
}

// TestGenerateKeysReproducible: one seed gives the same keys on every call
// and at every GOMAXPROCS, and every key is a valid pair x, x·G with x in
// [1, N−1].
func TestGenerateKeysReproducible(t *testing.T) {
	const n = 50
	want, err := GenerateKeys(newDetReader("keys-reproducible"), n)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range want {
		if k.D.Sign() <= 0 || k.D.Cmp(curveN) >= 0 {
			t.Fatalf("scalar out of range: %v", k.D)
		}
		var d [32]byte
		k.D.FillBytes(d[:])
		x, y := Curve.ScalarBaseMult(d[:])
		if !k.Public.Equal(Point{x, y}) {
			t.Fatal("public key is not x·G")
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got, err := GenerateKeys(newDetReader("keys-reproducible"), n)
		if err != nil {
			t.Fatal(err)
		}
		if i := sameKeys(got, want); i >= 0 {
			t.Fatalf("GOMAXPROCS=%d: key %d differs from the first run", procs, i)
		}
	}
}

// TestGenerateKeysMatchesSequential: the batch equals n GenerateKey calls
// on one stream, and leaves the stream where they leave it.
func TestGenerateKeysMatchesSequential(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64} {
		batchRng, seqRng := newDetReader("keys-sequential"), newDetReader("keys-sequential")
		got, err := GenerateKeys(batchRng, n)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]*PrivateKey, n)
		for i := range want {
			if want[i], err = GenerateKey(seqRng); err != nil {
				t.Fatal(err)
			}
		}
		if i := sameKeys(got, want); i >= 0 {
			t.Fatalf("n=%d: key %d differs", n, i)
		}
		if batchRng.ctr != seqRng.ctr || len(batchRng.buf) != len(seqRng.buf) {
			t.Fatalf("n=%d: the batch consumed a different share of the stream", n)
		}
	}
}

// TestGenerateKeysEntropyError: a stream that runs dry fails the batch.
func TestGenerateKeysEntropyError(t *testing.T) {
	keys, err := GenerateKeys(bytes.NewReader(make([]byte, 40)), 3)
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want an EOF", err)
	}
	if keys != nil {
		t.Fatal("keys returned with an error")
	}
}

// pointPool returns n distinct public keys from a deterministic stream.
func pointPool(t testing.TB, n int) []Point {
	t.Helper()
	keys, err := GenerateKeys(newDetReader("precompute-pool"), n)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, n)
	for i, k := range keys {
		pts[i] = k.Public
	}
	return pts
}

// sequentialMemo is Precompute's oracle: a fresh memo holding pre, then
// filled one key at a time through hashPoint.
func sequentialMemo(pre, keys []Point) *HpCache {
	c := NewHpCache()
	for _, p := range append(append([]Point(nil), pre...), keys...) {
		if !p.IsZero() {
			c.hashPoint(p)
		}
	}
	return c
}

// TestPrecomputeMatchesSequential: the memo Precompute leaves equals the
// sequential fill, over empty and single inputs, zero points, duplicates
// and keys already memoised.
func TestPrecomputeMatchesSequential(t *testing.T) {
	pool := pointPool(t, 12)
	zero := Point{}
	cases := []struct {
		name      string
		pre, keys []Point
	}{
		{"empty", nil, nil},
		{"single", nil, pool[:1]},
		{"single memoised", pool[:1], pool[:1]},
		{"zero only", nil, []Point{zero, zero}},
		{"distinct", nil, pool},
		{"duplicates", nil, []Point{pool[0], pool[1], pool[0], pool[2], pool[1], pool[0]}},
		{"zeros among keys", nil, []Point{zero, pool[3], zero, pool[4]}},
		{"some memoised", pool[:5], pool},
		{"all memoised", pool, pool[2:9]},
		{"everything", pool[:3], []Point{pool[2], zero, pool[7], pool[7], pool[0], pool[11], zero}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := NewHpCache()
			for _, p := range tc.pre {
				got.hashPoint(p)
			}
			got.Precompute(tc.keys)
			want := sequentialMemo(tc.pre, tc.keys)
			if len(got.m) != len(want.m) {
				t.Fatalf("memo holds %d keys, sequential fill %d", len(got.m), len(want.m))
			}
			for k, v := range want.m {
				if g, ok := got.m[k]; !ok || !g.Equal(v) {
					t.Fatalf("memo entry %x: got %v (present %v), want %v", k, g, ok, v)
				}
			}
		})
	}
	var nilMemo *HpCache
	nilMemo.Precompute(pool) // a nil memo stays a no-op
}

// TestPrecomputeConcurrentReaders: hashPoint readers running during a
// Precompute over the same keys always see Hp(P), for -race.
func TestPrecomputeConcurrentReaders(t *testing.T) {
	pool := pointPool(t, 64)
	want := make([]Point, len(pool))
	for i, p := range pool {
		want[i] = hashToPoint(p)
	}
	c := NewHpCache()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range pool {
				j := (i*7 + g*13) % len(pool)
				if !c.hashPoint(pool[j]).Equal(want[j]) {
					errs <- errors.New("hashPoint returned a wrong point during Precompute")
					return
				}
			}
		}(g)
	}
	c.Precompute(pool)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.Len() != len(pool) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(pool))
	}
}

// TestPrecomputeAndGenerateKeysLeaveNoGoroutines: after GenerateKeys and
// Precompute return, the goroutine count is back at its baseline.
func TestPrecomputeAndGenerateKeysLeaveNoGoroutines(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		keys, err := GenerateKeys(newDetReader("leak check"), 16+round)
		if err != nil {
			t.Fatal(err)
		}
		pts := make([]Point, len(keys))
		for i, k := range keys {
			pts[i] = k.Public
		}
		NewHpCache().Precompute(pts)
	}
	// Workers may still be on their way out after signalling the
	// WaitGroup.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after the calls, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// startupBenchKeys sizes the start-up benchmarks: large enough to fill
// every worker, small enough for CI's one-iteration bench smoke.
const startupBenchKeys = 2000

func BenchmarkGenerateKeys(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateKeys(newDetReader("bench-keys"), startupBenchKeys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrecompute(b *testing.B) {
	pts := pointPool(b, startupBenchKeys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewHpCache().Precompute(pts)
	}
}
