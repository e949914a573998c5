package ringsig

// Tests of the ring walk: a differential test against ringStep, the plain
// one-goroutine chain step it replaced, plus goroutine hygiene and shared-
// Engine concurrency. Run them at both widths — `go test -cpu 1,2 -run
// 'Sign|Verify|Walk'` — so the path where the walker claims every position
// itself is covered as well as the path where the helper runs ahead.

import (
	"context"
	"crypto/rand"
	"errors"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mulPair returns a·Q + b·R on stock ScalarMults and an Add: the
// one-goroutine form of the walk's s·Hp(P) + c·I.
func mulPair(a *big.Int, q Point, b *big.Int, r Point) Point {
	var ab, bb [32]byte
	a.FillBytes(ab[:])
	b.FillBytes(bb[:])
	qx, qy := Curve.ScalarMult(q.X, q.Y, ab[:])
	rx, ry := Curve.ScalarMult(r.X, r.Y, bb[:])
	x, y := Curve.Add(qx, qy, rx, ry)
	return Point{X: x, Y: y}
}

// ringStep is the walk's oracle: c_{i+1} = H(msg, s·G + c·P, s·Hp(P) + c·I)
// on one goroutine.
func ringStep(msg []byte, pub, image Point, s, c *big.Int) *big.Int {
	l := mulPairBase(s, c, pub)
	r := mulPair(s, hashToPoint(pub), c, image)
	return challenge(msg, l, r)
}

// detScalar draws a scalar in [0, N) from r.
func detScalar(t testing.TB, r *detReader) *big.Int {
	t.Helper()
	k, err := rand.Int(r, curveN)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestWalkMatchesRingStep walks random rings of 2–16 members, from random
// start positions over random lengths, and checks every challenge of the
// chain against ringStep. Responses include the kernel edge scalars (zero
// puts the helper's term at infinity).
func TestWalkMatchesRingStep(t *testing.T) {
	r := newDetReader("walk-differential")
	pick := func(n int) int { return int(detScalar(t, r).Int64()&0x7fffffff) % n }
	keyPool := make([]Point, 16)
	for i := range keyPool {
		k, err := GenerateKey(r)
		if err != nil {
			t.Fatal(err)
		}
		keyPool[i] = k.Public
	}
	edges := kernelScalars(t)
	memo := NewHpCache()
	msg := []byte("walk differential")

	for trial := 0; trial < 40; trial++ {
		n := 2 + pick(15)
		ring := make([]Point, n)
		s := make([]*big.Int, n)
		for i := range ring {
			ring[i] = keyPool[pick(len(keyPool))]
			if pick(4) == 0 {
				s[i] = edges[pick(len(edges))]
			} else {
				s[i] = detScalar(t, r)
			}
		}
		image := hashToPoint(keyPool[pick(len(keyPool))])
		from, steps := pick(n), 1+pick(n)
		var hp *HpCache
		if trial%2 == 1 {
			hp = memo
		}

		w := startWalk(hp, msg, ring, s, from, steps)
		c0 := detScalar(t, r)
		got, want := c0, c0
		for j := 0; j < steps; j++ {
			i := (from + j) % n
			got = w.step(j, image, got)
			want = ringStep(msg, ring[i], image, s[i], want)
			if got.Cmp(want) != 0 {
				t.Fatalf("trial %d (n=%d from=%d): step %d: walk %v, ringStep %v", trial, n, from, j, got, want)
			}
		}
		if next := w.next.Load(); next < int64(steps) {
			t.Fatalf("trial %d: cursor %d after a %d-step walk", trial, next, steps)
		}
		if left := len(w.done); left != 0 {
			t.Fatalf("trial %d: %d helper completions never consumed", trial, left)
		}
		w.finish()
	}
}

// TestEngineSignMatchesSign: an Engine resolving Hp through a warm memo
// signs the same bytes as the cache-less package Sign.
func TestEngineSignMatchesSign(t *testing.T) {
	keys, ring := genRing(t, 9)
	e := &Engine{Hp: NewHpCache()}
	e.Hp.Precompute(ring)
	msg := []byte("engine sign")
	for idx := range keys {
		a, err := Sign(newDetReader("engine-sign"), keys[idx], ring, idx, msg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.SignCtx(context.Background(), newDetReader("engine-sign"), keys[idx], ring, idx, msg)
		if err != nil {
			t.Fatal(err)
		}
		if a.C0.Cmp(b.C0) != 0 || !a.Image.Equal(b.Image) {
			t.Fatalf("idx %d: C0 or image differs", idx)
		}
		for i := range a.S {
			if a.S[i].Cmp(b.S[i]) != 0 {
				t.Fatalf("idx %d: s[%d] differs", idx, i)
			}
		}
	}
}

// countdownCtx reports cancellation once Err has been called more than left
// times, so a batch is cancelled part way through, deterministically.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestWalkLeavesNoGoroutines: after many signs, verifies — valid and
// rejected — and batches, including cancelled ones, and self-verified
// signs on every path (accepted, signing error, failed shape, failed link
// with the fallback), the goroutine count returns to its baseline.
func TestWalkLeavesNoGoroutines(t *testing.T) {
	keys, ring := genRing(t, 6)
	msg := []byte("leak check")
	sig, err := Sign(rand.Reader, keys[2], ring, 2, msg)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Sign(rand.Reader, keys[4], ring, 4, msg)
	if err != nil {
		t.Fatal(err)
	}
	bad := mutateSig(sig, ring, msg, other)
	reqs := make([]VerifyRequest, 0, 1+len(bad))
	reqs = append(reqs, VerifyRequest{Sig: sig, Ring: ring, Msg: msg})
	for _, b := range bad {
		reqs = append(reqs, b.req)
	}
	e := &Engine{Hp: NewHpCache()}

	runtime.GC()
	base := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		if _, err := e.sign(rand.Reader, keys[round%len(keys)], ring, round%len(keys), msg, nil); err != nil {
			t.Fatal(err)
		}
		if err := Verify(sig, ring, msg); err != nil {
			t.Fatal(err)
		}
		for _, b := range bad {
			if err := e.Verify(b.req.Sig, b.req.Ring, b.req.Msg); err == nil {
				t.Fatalf("%s: accepted", b.name)
			}
		}
		if res := e.VerifyBatch(context.Background(), reqs); res.FirstFailure != 1 {
			t.Fatalf("FirstFailure = %d, want 1", res.FirstFailure)
		}
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(int64(round % 4))
		if e.VerifyBatch(ctx, reqs).OK() {
			t.Fatal("a cancelled batch with tampered entries cannot be OK")
		}
		signer := round % len(keys)
		if _, err := e.SignVerifiedCtx(context.Background(), rand.Reader, keys[signer], ring, signer, msg); err != nil {
			t.Fatal(err)
		}
		if _, err := e.SignVerifiedCtx(context.Background(), rand.Reader, keys[signer], ring, (signer+1)%len(ring), msg); !errors.Is(err, ErrNotInRing) {
			t.Fatalf("signing as another member: %v", err)
		}
		b := bad[round%len(bad)]
		testHookChecked = func(*Signature, []Point, []byte) (*Signature, []Point, []byte) {
			return b.req.Sig, b.req.Ring, b.req.Msg
		}
		_, err := e.SignVerifiedCtx(context.Background(), rand.Reader, keys[signer], ring, signer, msg)
		testHookChecked = nil
		if err == nil {
			t.Fatalf("%s: self-check accepted", b.name)
		}
	}

	// Every walk waits for its helper, but VerifyBatch's workers may still
	// be on their way out after signalling its WaitGroup.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after the calls, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestVerifyConcurrentSharedEngine runs signs, verifies and self-verified
// signs from several goroutines over one Engine with both caches, so -race
// sees the walk's helpers, the self-checks, the memo and the transcript
// cache shared at once.
func TestVerifyConcurrentSharedEngine(t *testing.T) {
	keys, ring := genRing(t, 5)
	e := &Engine{Hp: NewHpCache(), Seen: NewSigCache(64)}
	msg := []byte("shared engine")
	sig, err := e.sign(rand.Reader, keys[0], ring, 0, msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := e.sign(rand.Reader, keys[1], ring, 1, msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := mutateSig(sig, ring, msg, other)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				own, err := e.sign(rand.Reader, keys[g], ring, g, msg, nil)
				if err != nil {
					errs <- err
					return
				}
				if err := e.Verify(own, ring, msg); err != nil {
					errs <- err
					return
				}
				if _, err := e.SignVerifiedCtx(context.Background(), rand.Reader, keys[g], ring, g, msg); err != nil {
					errs <- err
					return
				}
				if err := e.Verify(sig, ring, msg); err != nil {
					errs <- err
					return
				}
				if b := bad[(g+round)%len(bad)]; e.Verify(b.req.Sig, b.req.Ring, b.req.Msg) == nil {
					errs <- errors.New(b.name + ": accepted")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
