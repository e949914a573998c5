package ringsig

// Tests of SignVerifiedCtx against its two oracles: SignCtx for the
// signature bytes and Engine.Verify for the verdict. Their names match the
// `-cpu 1,2 -run 'Sign|Verify|Walk'` sweep, so the checker is covered both
// where it runs beside the walk and where every link waits for the walk's
// end.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"
	"testing"

	"tokenmagic/internal/obs/trace"
)

// sigBytes is the signature's encoding, for byte-identity checks.
func sigBytes(t testing.TB, sig *Signature) []byte {
	t.Helper()
	b, err := sig.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// signVerifiedTraced is SignVerifiedCtx under a trace; it also returns the
// annotations of the call's verify-sig span.
func signVerifiedTraced(t testing.TB, e *Engine, rng io.Reader, sk *PrivateKey, ring []Point, idx int, msg []byte) (*Signature, error, map[string]string) {
	t.Helper()
	col := trace.NewCollector()
	ctx, tr := trace.New(context.Background(), col, "test")
	sig, err := e.SignVerifiedCtx(ctx, rng, sk, ring, idx, msg)
	tr.Finish("done")
	for _, sp := range col.Snapshot("", 1).Recent[0].Spans {
		if sp.Name == "verify-sig" {
			return sig, err, sp.Annotations
		}
	}
	t.Fatal("no verify-sig span")
	return nil, nil, nil
}

// setHook installs a test hook for the rest of the test.
func setHook[F any](t testing.TB, hook *F, fn F) {
	t.Helper()
	*hook = fn
	t.Cleanup(func() {
		var zero F
		*hook = zero
	})
}

// TestSignVerifiedMatchesSignCtx: over ring sizes 2–16 and every signer
// position, SignVerifiedCtx signs the bytes SignCtx signs from the same rng
// stream, accepts them without falling back to Engine.Verify, and records
// them in the transcript cache.
func TestSignVerifiedMatchesSignCtx(t *testing.T) {
	keys, pool := genRing(t, 16)
	e := &Engine{Hp: NewHpCache(), Seen: NewSigCache(1024)}
	e.Hp.Precompute(pool)
	ctx := context.Background()
	for n := 2; n <= 16; n++ {
		ring := pool[:n]
		for idx := 0; idx < n; idx++ {
			msg := []byte(fmt.Sprintf("self-check %d/%d", idx, n))
			label := fmt.Sprintf("same-bytes-%d-%d", n, idx)
			want, err := e.SignCtx(ctx, newDetReader(label), keys[idx], ring, idx, msg)
			if err != nil {
				t.Fatal(err)
			}
			got, err, annots := signVerifiedTraced(t, e, newDetReader(label), keys[idx], ring, idx, msg)
			if err != nil || annots["fallback"] != "" {
				t.Fatalf("n=%d idx=%d: %v, verify-sig %v", n, idx, err, annots)
			}
			if !bytes.Equal(sigBytes(t, got), sigBytes(t, want)) {
				t.Fatalf("n=%d idx=%d: signature differs from SignCtx's", n, idx)
			}
			if !e.Seen.Seen(transcriptKey(got, ring, msg)) {
				t.Fatalf("n=%d idx=%d: verified transcript not recorded", n, idx)
			}
		}
	}
}

// TestSignVerifiedSignErrors: signing errors come back unwrapped, exactly
// as SignCtx returns them.
func TestSignVerifiedSignErrors(t *testing.T) {
	keys, ring := genRing(t, 4)
	e := &Engine{Hp: NewHpCache()}
	ctx := context.Background()
	offCurve := append([]Point{}, ring...)
	offCurve[2] = Point{X: big.NewInt(7), Y: big.NewInt(9)}
	stream := func() io.Reader { return newDetReader("e") }
	short := func() io.Reader { return bytes.NewReader(make([]byte, 40)) }
	for _, tc := range []struct {
		name string
		rng  func() io.Reader
		ring []Point
		idx  int
		want error
	}{
		{"small ring", stream, ring[:1], 0, ErrSmallRing},
		{"signer not in ring", stream, ring, 2, ErrNotInRing},
		{"bad ring key", stream, offCurve, 0, ErrBadRingKeys},
		{"entropy", short, ring, 0, io.ErrUnexpectedEOF},
	} {
		_, want := e.SignCtx(ctx, tc.rng(), keys[0], tc.ring, tc.idx, []byte("m"))
		_, got := e.SignVerifiedCtx(ctx, tc.rng(), keys[0], tc.ring, tc.idx, []byte("m"))
		var sce *SelfCheckError
		if got == nil || errors.As(got, &sce) || !errors.Is(got, tc.want) || got.Error() != want.Error() {
			t.Errorf("%s: got %v, SignCtx %v", tc.name, got, want)
		}
	}
}

// TestSignVerifiedTamperMatchesVerify: when the signature the self-check
// sees is not the one the walk produced (every reject class of mutateSig,
// and another member's valid signature), the call's verdict is
// Engine.Verify's on what it saw, error identity included. The oracle is a
// separate cache-less Engine, so a wrongly recorded transcript cannot make
// it agree.
func TestSignVerifiedTamperMatchesVerify(t *testing.T) {
	keys, ring := genRing(t, 5)
	e := &Engine{Hp: NewHpCache(), Seen: NewSigCache(64)}
	var oracle Engine
	ctx := context.Background()
	msg := []byte("tamper")
	for _, signer := range []int{1, 3} {
		label := fmt.Sprintf("tamper-%d", signer)
		sig, err := e.SignCtx(ctx, newDetReader(label), keys[signer], ring, signer, msg)
		if err != nil {
			t.Fatal(err)
		}
		other, err := e.SignCtx(ctx, newDetReader("other"), keys[4], ring, 4, msg)
		if err != nil {
			t.Fatal(err)
		}
		cases := append(mutateSig(sig, ring, msg, other),
			tamper{"another member's valid signature", VerifyRequest{Sig: other, Ring: ring, Msg: msg}})
		for _, tc := range cases {
			r := tc.req
			setHook(t, &testHookChecked, func(*Signature, []Point, []byte) (*Signature, []Point, []byte) {
				return r.Sig, r.Ring, r.Msg
			})
			want := oracle.Verify(r.Sig, r.Ring, r.Msg)
			got, err := e.SignVerifiedCtx(ctx, newDetReader(label), keys[signer], ring, signer, msg)
			if want == nil {
				if err != nil || got != r.Sig {
					t.Fatalf("signer %d, %s: got (%v, %v), Verify accepts", signer, tc.name, got, err)
				}
				continue
			}
			var sce *SelfCheckError
			if !errors.As(err, &sce) || sce.Err != want || got != nil {
				t.Fatalf("signer %d, %s: got (%v, %v), Verify %v", signer, tc.name, got, err, want)
			}
		}
	}
}

// TestSignVerifiedFallsBackOnLinkMismatch: a link check that reports a
// mismatch sends the call to Engine.Verify, which accepts the signature.
func TestSignVerifiedFallsBackOnLinkMismatch(t *testing.T) {
	keys, ring := genRing(t, 7)
	ctx := context.Background()
	msg := []byte("fallback")
	for bad := range ring {
		e := &Engine{Hp: NewHpCache(), Seen: NewSigCache(64)}
		setHook(t, &testHookLink, func(i int, holds bool) bool { return holds && i != bad })
		want, err := e.SignCtx(ctx, newDetReader("fallback"), keys[2], ring, 2, msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err, annots := signVerifiedTraced(t, e, newDetReader("fallback"), keys[2], ring, 2, msg)
		if err != nil || annots["fallback"] != "verify" {
			t.Fatalf("link %d forced to mismatch: %v, verify-sig %v", bad, err, annots)
		}
		if !bytes.Equal(sigBytes(t, got), sigBytes(t, want)) {
			t.Fatalf("link %d forced to mismatch: signature differs", bad)
		}
		if !e.Seen.Seen(transcriptKey(got, ring, msg)) {
			t.Fatalf("link %d forced to mismatch: Verify's acceptance not recorded", bad)
		}
	}
}

// FuzzSignVerifiedEquivalence: for a fuzzed ring size, signer, rng seed and
// message, SignVerifiedCtx signs SignCtx's bytes, and its verdict is
// Engine.Verify's. The fault byte picks, when nonzero, a mutateSig class
// for the self-check to see instead of the walk's signature, or a link
// forced to report a mismatch.
func FuzzSignVerifiedEquivalence(f *testing.F) {
	keys, pool := genRing(f, 9)
	f.Add(uint8(2), uint8(0), int64(1), []byte("m"), uint8(0))
	f.Add(uint8(9), uint8(8), int64(2), []byte(""), uint8(3))
	f.Add(uint8(5), uint8(2), int64(3), []byte("spend"), uint8(200))
	f.Fuzz(func(t *testing.T, size, signer uint8, seed int64, msg []byte, fault uint8) {
		n := 3 + int(size)%(len(pool)-2)
		ring, idx := pool[:n], int(signer)%n
		e := &Engine{Hp: NewHpCache(), Seen: NewSigCache(64)}
		ctx := context.Background()
		label := fmt.Sprintf("fuzz-sign-verified-%d", seed)
		want, err := e.SignCtx(ctx, newDetReader(label), keys[idx], ring, idx, msg)
		if err != nil {
			t.Fatal(err)
		}
		checked := VerifyRequest{Sig: want, Ring: ring, Msg: msg}
		if fault != 0 {
			other, err := e.SignCtx(ctx, newDetReader(label+"-other"), keys[(idx+1)%n], ring, (idx+1)%n, msg)
			if err != nil {
				t.Fatal(err)
			}
			muts := mutateSig(want, ring, msg, other)
			if k := int(fault) - 1; k < len(muts) {
				checked = muts[k].req
				testHookChecked = func(*Signature, []Point, []byte) (*Signature, []Point, []byte) {
					return checked.Sig, checked.Ring, checked.Msg
				}
			} else {
				bad := int(fault) % n
				testHookLink = func(i int, holds bool) bool { return holds && i != bad }
			}
			defer func() { testHookChecked, testHookLink = nil, nil }()
		}
		var oracle Engine
		verdict := oracle.Verify(checked.Sig, checked.Ring, checked.Msg)
		got, err := e.SignVerifiedCtx(ctx, newDetReader(label), keys[idx], ring, idx, msg)
		if verdict == nil {
			if err != nil || !bytes.Equal(sigBytes(t, got), sigBytes(t, checked.Sig)) {
				t.Fatalf("Verify accepts; SignVerifiedCtx gave (%v, %v)", got, err)
			}
			return
		}
		var sce *SelfCheckError
		if !errors.As(err, &sce) || sce.Err != verdict {
			t.Fatalf("Verify: %v; SignVerifiedCtx: %v", verdict, err)
		}
	})
}

// BenchmarkSignVerifiedRing13 prices a spend's sign plus self-verify on a
// warm Hp memo, overlapped (SignVerifiedCtx) and back to back (SignCtx then
// Verify), at the mean ring size of a spend-wide run.
func BenchmarkSignVerifiedRing13(b *testing.B) {
	keys, ring := genRing(b, 13)
	e := &Engine{Hp: NewHpCache()}
	e.Hp.Precompute(ring)
	ctx := context.Background()
	msg := []byte("bench")
	b.Run("overlapped", func(b *testing.B) {
		rng := newDetReader("bench")
		for i := 0; i < b.N; i++ {
			if _, err := e.SignVerifiedCtx(ctx, rng, keys[5], ring, 5, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		rng := newDetReader("bench")
		for i := 0; i < b.N; i++ {
			sig, err := e.SignCtx(ctx, rng, keys[5], ring, 5, msg)
			if err != nil {
				b.Fatal(err)
			}
			if err := e.Verify(sig, ring, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
