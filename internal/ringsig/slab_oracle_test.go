package ringsig

// Exact-width storage against the code it replaced. GenerateKeys and
// Precompute keep every key and memo entry in one slab per call; the
// oracles below are their earlier bodies, where each scalar and coordinate
// was its own math/big allocation. Run them at both widths — `go test
// -cpu 1,2 -run Slab` — so the slabs are filled inline as well as by the
// worker pool, and under -race.

import (
	"fmt"
	"io"
	"math/big"
	"runtime"
	"testing"
)

// oracleGenerateKeys is GenerateKeys before exact-width storage.
func oracleGenerateKeys(rng io.Reader, n int) ([]*PrivateKey, error) {
	keys := make([]*PrivateKey, n)
	for i := range keys {
		d, err := randScalar(rng)
		if err != nil {
			return nil, fmt.Errorf("ringsig: keygen: %w", err)
		}
		keys[i] = &PrivateKey{D: d}
	}
	parallelFor(runtime.GOMAXPROCS(0), n, func(i int) {
		var d [32]byte
		keys[i].D.FillBytes(d[:])
		x, y := Curve.ScalarBaseMult(d[:])
		keys[i].Public = Point{X: x, Y: y}
	})
	return keys, nil
}

// oraclePrecompute is Precompute before exact-width storage.
func (c *HpCache) oraclePrecompute(keys []Point) {
	if c == nil {
		return
	}
	var ks []hpKey
	var pts []Point
	queued := make(map[hpKey]struct{}, len(keys))
	c.mu.RLock()
	for _, p := range keys {
		if p.IsZero() {
			continue
		}
		k := makeHpKey(p)
		if _, ok := c.m[k]; ok {
			continue
		}
		if _, ok := queued[k]; ok {
			continue
		}
		queued[k] = struct{}{}
		ks = append(ks, k)
		pts = append(pts, p)
	}
	c.mu.RUnlock()

	hps := make([]Point, len(pts))
	parallelFor(runtime.GOMAXPROCS(0), len(pts), func(i int) {
		hps[i] = hashToPoint(pts[i])
	})
	c.mu.Lock()
	for i, k := range ks {
		c.m[k] = hps[i]
	}
	c.mu.Unlock()
}

// TestSlabKeysMatchOracle: over several sizes and two seeds, every D, X
// and Y equals the oracle's value for value, and both leave the stream at
// the same place.
func TestSlabKeysMatchOracle(t *testing.T) {
	for _, seed := range []string{"slab-seed-a", "slab-seed-b"} {
		for _, n := range []int{1, 2, 1000} {
			gotRng, wantRng := newDetReader(seed), newDetReader(seed)
			got, err := GenerateKeys(gotRng, n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleGenerateKeys(wantRng, n)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.D.Cmp(w.D) != 0 || g.Public.X.Cmp(w.Public.X) != 0 || g.Public.Y.Cmp(w.Public.Y) != 0 {
					t.Fatalf("seed %s, n=%d: key %d differs from the oracle", seed, n, i)
				}
			}
			if gotRng.ctr != wantRng.ctr || len(gotRng.buf) != len(wantRng.buf) {
				t.Fatalf("seed %s, n=%d: the slab consumed a different share of the stream", seed, n)
			}
		}
	}
}

// TestSlabMemoMatchesOracle: the memo that Precompute leaves, duplicates,
// zero points and already memoised keys included, holds the oracle's keys,
// and every entry equals hashToPoint. So does an entry stored by a single
// miss.
func TestSlabMemoMatchesOracle(t *testing.T) {
	pool := pointPool(t, 1000)
	keys := append(append([]Point{{}}, pool...), pool[:10]...)
	for _, pre := range [][]Point{nil, pool[:1], pool[500:520]} {
		got, want := NewHpCache(), NewHpCache()
		for _, p := range pre {
			got.hashPoint(p)
			want.hashPoint(p)
		}
		got.Precompute(keys)
		want.oraclePrecompute(keys)
		if len(got.m) != len(want.m) {
			t.Fatalf("memo holds %d keys, oracle %d", len(got.m), len(want.m))
		}
		for _, p := range pool {
			k := makeHpKey(p)
			g, ok := got.m[k]
			if !ok || !g.Equal(want.m[k]) || !g.Equal(hashToPoint(p)) {
				t.Fatalf("memo entry %x differs from the oracle", k)
			}
		}
	}
	miss := NewHpCache()
	if !miss.hashPoint(pool[7]).Equal(hashToPoint(pool[7])) {
		t.Fatal("single-miss entry differs from hashToPoint")
	}
}

// TestSlabAliasing: growing one key's D and X in place past 256 bits, or
// one memo entry's coordinates, leaves every other value in the slab as it
// was: each window's capacity ends at its own value. A 64-bit shift
// outgrows one window but would still fit in two; a 300-bit shift outgrows
// both.
func TestSlabAliasing(t *testing.T) {
	for _, shift := range []uint{64, 300} {
		keys, err := GenerateKeys(newDetReader("slab-aliasing"), 3)
		if err != nil {
			t.Fatal(err)
		}
		before, err := oracleGenerateKeys(newDetReader("slab-aliasing"), 3)
		if err != nil {
			t.Fatal(err)
		}
		k := keys[1]
		k.D.Lsh(k.D, shift)
		k.Public.X.Lsh(k.Public.X, shift)
		if k.D.Cmp(new(big.Int).Lsh(before[1].D, shift)) != 0 || k.Public.X.Cmp(new(big.Int).Lsh(before[1].Public.X, shift)) != 0 {
			t.Fatalf("shift %d: the in-place shift gave a wrong value", shift)
		}
		if k.Public.Y.Cmp(before[1].Public.Y) != 0 {
			t.Fatalf("shift %d: growing key 1's D and X changed its Y", shift)
		}
		for _, i := range []int{0, 2} {
			if keys[i].D.Cmp(before[i].D) != 0 || !keys[i].Public.Equal(before[i].Public) {
				t.Fatalf("shift %d: growing key 1 changed its slab neighbour %d", shift, i)
			}
		}

		pts := []Point{before[0].Public, before[1].Public, before[2].Public}
		memo := NewHpCache()
		memo.Precompute(pts)
		e := memo.m[makeHpKey(pts[1])]
		want := hashToPoint(pts[1])
		e.X.Lsh(e.X, shift)
		if e.Y.Cmp(want.Y) != 0 {
			t.Fatalf("shift %d: growing memo entry 1's X changed its Y", shift)
		}
		e.Y.Lsh(e.Y, shift)
		for _, i := range []int{0, 2} {
			if !memo.hashPoint(pts[i]).Equal(hashToPoint(pts[i])) {
				t.Fatalf("shift %d: growing memo entry 1 changed its slab neighbour %d", shift, i)
			}
		}
	}
}

// retainedPerKey returns the live heap bytes per key that fn leaves behind
// once the garbage collector has run, with fn's result still held.
func retainedPerKey(t *testing.T, n int, fn func() any) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	held := fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(held)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// slabFootprintBound is the retained bytes per key of GenerateKeys plus
// Precompute that the registry must stay under. With a math/big
// allocation per value it was 631–640 (amd64, with and without -race); in
// exact-width slabs it is 471–480.
const slabFootprintBound = 550

// TestSlabFootprint: a node's key registry and its warm Hp memo together
// retain less than slabFootprintBound bytes per key.
func TestSlabFootprint(t *testing.T) {
	const n = 4096
	perKey := retainedPerKey(t, n, func() any {
		keys, err := GenerateKeys(newDetReader("slab-footprint"), n)
		if err != nil {
			t.Fatal(err)
		}
		pts := make([]Point, n)
		for i, k := range keys {
			pts[i] = k.Public
		}
		memo := NewHpCache()
		memo.Precompute(pts)
		return []any{keys, memo}
	})
	t.Logf("keys plus Hp memo retain %.0f B per key", perKey)
	if perKey >= slabFootprintBound {
		t.Fatalf("keys plus Hp memo retain %.0f B per key, want < %d", perKey, slabFootprintBound)
	}
}
