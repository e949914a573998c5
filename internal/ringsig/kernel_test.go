package ringsig

// Differential tests: the production path (Engine.sign, verifyOne, the
// ring walk) against the stock-curve test oracle (stock_oracle_test.go).
// The contract is exact equality — byte-identical signatures from the same
// rng stream, the same verdict with the same error identity on valid and
// tampered inputs, alone and in batches, and bit-identical point results
// from every multiplication.

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/big"
	"runtime"
	"testing"
)

// detReader is a deterministic byte stream (sha256 counter mode) so two
// Sign calls can consume identical entropy.
type detReader struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func newDetReader(label string) *detReader {
	return &detReader{seed: sha256.Sum256([]byte(label))}
}

func (r *detReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(r.buf) == 0 {
			var block [40]byte
			copy(block[:32], r.seed[:])
			binary.BigEndian.PutUint64(block[32:], r.ctr)
			r.ctr++
			sum := sha256.Sum256(block[:])
			r.buf = sum[:]
		}
		c := copy(p[n:], r.buf)
		r.buf = r.buf[c:]
		n += c
	}
	return n, nil
}

// kernelScalars is the scalar edge-case set every kernel test sweeps in
// addition to random draws.
func kernelScalars(t testing.TB) []*big.Int {
	t.Helper()
	n := Curve.Params().N
	edge := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(15),
		big.NewInt(1 << 30),
		new(big.Int).Sub(n, big.NewInt(1)),
		new(big.Int).Rsh(n, 1),
		new(big.Int).Lsh(big.NewInt(1), 200), // 56 leading zero bytes exercise FillBytes widths
	}
	for i := 0; i < 6; i++ {
		k, err := rand.Int(rand.Reader, n)
		if err != nil {
			t.Fatal(err)
		}
		edge = append(edge, k)
	}
	return edge
}

func stockPairBase(s, c *big.Int, pub Point) Point {
	sgx, sgy := Curve.ScalarBaseMult(s.Bytes())
	cpx, cpy := Curve.ScalarMult(pub.X, pub.Y, c.Bytes())
	x, y := Curve.Add(sgx, sgy, cpx, cpy)
	return Point{x, y}
}

func stockPair(a *big.Int, q Point, b *big.Int, r Point) Point {
	ax, ay := Curve.ScalarMult(q.X, q.Y, a.Bytes())
	bx, by := Curve.ScalarMult(r.X, r.Y, b.Bytes())
	x, y := Curve.Add(ax, ay, bx, by)
	return Point{x, y}
}

func TestKernelPairsMatchStock(t *testing.T) {
	_, ring := genRing(t, 3)
	p, q := ring[0], ring[1]
	for _, s := range kernelScalars(t) {
		for _, c := range kernelScalars(t) {
			if got, want := mulPairBase(s, c, p), stockPairBase(s, c, p); !got.Equal(want) {
				t.Fatalf("mulPairBase(%v, %v) = %v, want %v", s, c, got, want)
			}
			if got, want := mulPair(s, p, c, q), stockPair(s, p, c, q); !got.Equal(want) {
				t.Fatalf("mulPair(%v, %v) = %v, want %v", s, c, got, want)
			}
		}
	}
}

func TestHashToPointMatchesReference(t *testing.T) {
	for i := 0; i < 64; i++ {
		k, err := GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		fast := hashToPoint(k.Public)
		ref := oracleHashToPoint(k.Public)
		if !fast.Equal(ref) {
			t.Fatalf("hashToPoint(%v) = %v, reference = %v", k.Public, fast, ref)
		}
		if fast.Y.Bit(0) != 0 {
			t.Fatalf("hashToPoint must pick the even root, got odd y %v", fast.Y)
		}
		if !Curve.IsOnCurve(fast.X, fast.Y) {
			t.Fatal("hashToPoint result off curve")
		}
	}
}

// TestSignByteIdenticalToStock: same keys, same entropy stream — Sign and
// the oracle's oracleSign must emit byte-identical signatures.
func TestSignByteIdenticalToStock(t *testing.T) {
	keyRng := newDetReader("keys")
	keys := make([]*PrivateKey, 8)
	ring := make([]Point, 8)
	for i := range keys {
		k, err := GenerateKey(keyRng)
		if err != nil {
			t.Fatal(err)
		}
		keys[i], ring[i] = k, k.Public
	}
	msg := []byte("differential signing transcript")
	for idx := range keys {
		a, err := Sign(newDetReader("nonces"), keys[idx], ring, idx, msg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := oracleSign(newDetReader("nonces"), keys[idx], ring, idx, msg)
		if err != nil {
			t.Fatal(err)
		}
		if a.C0.Cmp(b.C0) != 0 {
			t.Fatalf("idx %d: C0 differs: %v vs %v", idx, a.C0, b.C0)
		}
		if !a.Image.Equal(b.Image) {
			t.Fatalf("idx %d: key image differs", idx)
		}
		for i := range a.S {
			if a.S[i].Cmp(b.S[i]) != 0 {
				t.Fatalf("idx %d: s[%d] differs: %v vs %v", idx, i, a.S[i], b.S[i])
			}
		}
		if err := oracleVerify(a, ring, msg); err != nil {
			t.Fatalf("oracle verify of Sign's signature: %v", err)
		}
		if err := Verify(b, ring, msg); err != nil {
			t.Fatalf("Verify of the oracle's signature: %v", err)
		}
	}
}

// tamper is one reject class: a request built from a valid one.
type tamper struct {
	name string
	req  VerifyRequest
}

// mutateSig returns one tampered request per reject class of the valid
// signature sig over ring and msg, which the production path and the oracle
// must reject with the same error. Tampered signatures get fresh big.Ints
// and tampered rings fresh slices, so the originals stay intact. other is a
// valid signature by a different member of the same ring; its key image in
// place of sig's is the swapped-images class. The ring needs three members.
func mutateSig(sig *Signature, ring []Point, msg []byte, other *Signature) []tamper {
	withSig := func(name string, edit func(s *Signature)) tamper {
		c := &Signature{C0: new(big.Int).Set(sig.C0), Image: sig.Image, S: make([]*big.Int, len(sig.S))}
		for i, s := range sig.S {
			c.S[i] = new(big.Int).Set(s)
		}
		edit(c)
		return tamper{name, VerifyRequest{Sig: c, Ring: ring, Msg: msg}}
	}
	withRing := func(name string, edit func(r []Point)) tamper {
		r := append([]Point{}, ring...)
		edit(r)
		return tamper{name, VerifyRequest{Sig: sig, Ring: r, Msg: msg}}
	}
	bump := func(k *big.Int) {
		k.Add(k, big.NewInt(1))
		k.Mod(k, curveN)
	}
	offCurve := Point{X: big.NewInt(7), Y: big.NewInt(9)}
	return []tamper{
		withSig("bumped C0", func(s *Signature) { bump(s.C0) }),
		withSig("bumped s", func(s *Signature) { bump(s.S[1]) }),
		withSig("zero s", func(s *Signature) { s.S[0].SetInt64(0) }),
		withSig("huge C0", func(s *Signature) { s.C0.Lsh(big.NewInt(1), 300) }),
		withSig("s = N", func(s *Signature) { s.S[2].Set(curveN) }),
		withSig("wrong on-curve image", func(s *Signature) { s.Image = hashToPoint(ring[0]) }),
		withSig("nil s", func(s *Signature) { s.S[1] = nil }),
		withSig("short S", func(s *Signature) { s.S = s.S[:len(s.S)-1] }),
		withSig("nil C0", func(s *Signature) { s.C0 = nil }),
		withSig("negative C0", func(s *Signature) { s.C0.SetInt64(-1) }),
		withSig("negative s", func(s *Signature) { s.S[2].Neg(s.S[2]) }),
		withSig("off-curve image", func(s *Signature) { s.Image = offCurve }),
		withSig("zero image", func(s *Signature) { s.Image = Point{} }),
		withSig("image of another signer", func(s *Signature) { s.Image = other.Image }),
		{"wrong message", VerifyRequest{Sig: sig, Ring: ring, Msg: append([]byte("not "), msg...)}},
		withRing("swapped ring members", func(r []Point) { r[0], r[1] = r[1], r[0] }),
		withRing("zero ring point", func(r []Point) { r[len(r)-1] = Point{} }),
		withRing("off-curve ring point", func(r []Point) { r[1] = offCurve }),
	}
}

// checkAgainstOracle fails t unless every entry of res is the oracle's
// verdict on that request, error identity included, and FirstFailure is
// the oracle's first reject.
func checkAgainstOracle(t testing.TB, reqs []VerifyRequest, res BatchResult) {
	t.Helper()
	first := -1
	for i, r := range reqs {
		want := oracleVerify(r.Sig, r.Ring, r.Msg)
		if !errors.Is(res.Errs[i], want) {
			t.Fatalf("index %d: batch %v, oracle %v", i, res.Errs[i], want)
		}
		if want != nil && first == -1 {
			first = i
		}
	}
	if res.FirstFailure != first {
		t.Fatalf("FirstFailure = %d, oracle's first reject %d", res.FirstFailure, first)
	}
}

// TestVerifyDecisionsMatchStock: every reject class gets the oracle's
// error, from Verify alone and from one VerifyBatch over all of them.
func TestVerifyDecisionsMatchStock(t *testing.T) {
	keys, ring := genRing(t, 6)
	msg := []byte("decision parity")
	sig, err := Sign(rand.Reader, keys[3], ring, 3, msg)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Sign(rand.Reader, keys[1], ring, 1, msg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []VerifyRequest{{Sig: sig, Ring: ring, Msg: msg}}
	for _, bad := range mutateSig(sig, ring, msg, other) {
		r := bad.req
		got, want := Verify(r.Sig, r.Ring, r.Msg), oracleVerify(r.Sig, r.Ring, r.Msg)
		if want == nil {
			t.Fatalf("%s: the oracle accepts it", bad.name)
		}
		if !errors.Is(got, want) {
			t.Fatalf("%s: Verify %v, oracle %v", bad.name, got, want)
		}
		reqs = append(reqs, r)
	}
	checkAgainstOracle(t, reqs, (&Engine{}).VerifyBatch(context.Background(), reqs))
}

func TestVerifyBatchNegatives(t *testing.T) {
	keys, ring := genRing(t, 5)
	msg := func(i int) []byte { return []byte{byte(i), 'm'} }
	reqs := make([]VerifyRequest, 8)
	sigs := make([]*Signature, 8)
	for i := range reqs {
		sig, err := Sign(rand.Reader, keys[i%5], ring, i%5, msg(i))
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = sig
		reqs[i] = VerifyRequest{Sig: sig, Ring: ring, Msg: msg(i)}
	}
	e := &Engine{}

	t.Run("all valid", func(t *testing.T) {
		res := e.VerifyBatch(context.Background(), reqs)
		if !res.OK() || res.FirstFailure != -1 {
			t.Fatalf("valid batch rejected: %+v", res)
		}
	})

	t.Run("tampered s[i]", func(t *testing.T) {
		bad := append([]VerifyRequest{}, reqs...)
		bad[3] = mutateSig(sigs[3], ring, msg(3), sigs[4])[1].req // bumped s[1]
		res := e.VerifyBatch(context.Background(), bad)
		if res.FirstFailure != 3 {
			t.Fatalf("FirstFailure = %d, want 3", res.FirstFailure)
		}
		if !errors.Is(res.Errs[3], ErrInvalid) {
			t.Fatalf("err = %v, want ErrInvalid", res.Errs[3])
		}
		checkAgainstOracle(t, bad, res)
	})

	t.Run("swapped key images", func(t *testing.T) {
		bad := append([]VerifyRequest{}, reqs...)
		a := &Signature{C0: sigs[1].C0, S: sigs[1].S, Image: sigs[2].Image}
		b := &Signature{C0: sigs[2].C0, S: sigs[2].S, Image: sigs[1].Image}
		bad[1] = VerifyRequest{Sig: a, Ring: ring, Msg: msg(1)}
		bad[2] = VerifyRequest{Sig: b, Ring: ring, Msg: msg(2)}
		res := e.VerifyBatch(context.Background(), bad)
		if res.FirstFailure != 1 {
			t.Fatalf("FirstFailure = %d, want 1", res.FirstFailure)
		}
		if res.Errs[1] == nil || res.Errs[2] == nil {
			t.Fatalf("swapped images must fail both: %v, %v", res.Errs[1], res.Errs[2])
		}
		checkAgainstOracle(t, bad, res)
	})

	t.Run("off-curve member mid-batch", func(t *testing.T) {
		bad := append([]VerifyRequest{}, reqs...)
		badRing := append([]Point{}, ring...)
		badRing[2] = Point{X: big.NewInt(3), Y: big.NewInt(5)}
		bad[4] = VerifyRequest{Sig: sigs[4], Ring: badRing, Msg: msg(4)}
		res := e.VerifyBatch(context.Background(), bad)
		if res.FirstFailure != 4 {
			t.Fatalf("FirstFailure = %d, want 4", res.FirstFailure)
		}
		if !errors.Is(res.Errs[4], ErrBadRingKeys) {
			t.Fatalf("err = %v, want ErrBadRingKeys", res.Errs[4])
		}
		checkAgainstOracle(t, bad, res)
	})

	t.Run("worker counts agree", func(t *testing.T) {
		bad := append([]VerifyRequest{}, reqs...)
		bad[5] = mutateSig(sigs[5], ring, msg(5), sigs[6])[0].req
		// VerifyBatch runs GOMAXPROCS workers, so the width is set here and
		// restored afterwards; subtests of this test never run in parallel.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			res := e.VerifyBatch(context.Background(), bad)
			if res.FirstFailure != 5 {
				t.Fatalf("GOMAXPROCS=%d: FirstFailure = %d, want 5", procs, res.FirstFailure)
			}
			checkAgainstOracle(t, bad, res)
		}
	})

	t.Run("cancelled context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res := e.VerifyBatch(ctx, reqs)
		for i, err := range res.Errs {
			if err == nil {
				t.Fatalf("index %d decided despite cancelled ctx", i)
			}
		}
		if res.OK() {
			t.Fatal("cancelled batch cannot be OK")
		}
	})
}

func TestEngineCaches(t *testing.T) {
	keys, ring := genRing(t, 4)
	msg := []byte("cached")
	sig, err := Sign(rand.Reader, keys[0], ring, 0, msg)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Hp: NewHpCache(), Seen: NewSigCache(128)}
	e.Hp.Precompute(ring)
	if e.Hp.Len() != len(ring) {
		t.Fatalf("Precompute: Len = %d, want %d", e.Hp.Len(), len(ring))
	}
	reqs := []VerifyRequest{{Sig: sig, Ring: ring, Msg: msg}}
	if res := e.VerifyBatch(context.Background(), reqs); !res.OK() || res.CacheHits != 0 {
		t.Fatalf("first pass: %+v", res)
	}
	res := e.VerifyBatch(context.Background(), reqs)
	if !res.OK() || res.CacheHits != 1 {
		t.Fatalf("second pass must hit the transcript cache: %+v", res)
	}
	// A tampered variant of a cached signature must still be rejected.
	other, err := Sign(rand.Reader, keys[1], ring, 1, msg)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range mutateSig(sig, ring, msg, other) {
		if err := e.Verify(bad.req.Sig, bad.req.Ring, bad.req.Msg); err == nil {
			t.Fatalf("%s: accepted after caching the valid signature", bad.name)
		}
	}
	// Same transcript under a different message is a different key.
	if err := e.Verify(sig, ring, []byte("other")); err == nil {
		t.Fatal("cache must not leak across messages")
	}
}

func TestSigCacheRotation(t *testing.T) {
	c := NewSigCache(8)
	key := func(i int) [32]byte { return sha256.Sum256([]byte{byte(i)}) }
	for i := 0; i < 64; i++ {
		c.Record(key(i))
	}
	if c.Len() > 8 {
		t.Fatalf("cache exceeded bound: %d", c.Len())
	}
	if !c.Seen(key(63)) {
		t.Fatal("most recent entry must survive rotation")
	}
	if c.Seen(key(0)) {
		t.Fatal("oldest entry should have rotated out")
	}
	var nilCache *SigCache
	if nilCache.Seen(key(1)) {
		t.Fatal("nil cache never hits")
	}
	nilCache.Record(key(1)) // must not panic
}

// FuzzVerifyBatchEquivalence asserts VerifyBatch ≡ per-signature oracle
// verdicts, error identity included, on random valid/invalid mixes: the
// fuzzer controls which requests are tampered and with which class. A
// second pass over the same batch answers from the transcript cache and
// must give the same verdicts.
func FuzzVerifyBatchEquivalence(f *testing.F) {
	keyRng := newDetReader("fuzz-keys")
	keys := make([]*PrivateKey, 4)
	ring := make([]Point, 4)
	for i := range keys {
		k, err := GenerateKey(keyRng)
		if err != nil {
			f.Fatal(err)
		}
		keys[i], ring[i] = k, k.Public
	}
	f.Add(uint16(0x0000), int64(1))
	f.Add(uint16(0xffff), int64(2))
	f.Add(uint16(0x5a5a), int64(3))
	f.Fuzz(func(t *testing.T, tamperMask uint16, seed int64) {
		rng := newDetReader("fuzz-" + string(rune(seed)))
		const batch = 6
		sigs := make([]*Signature, batch)
		msgs := make([][]byte, batch)
		for i := range sigs {
			idx := i % len(keys)
			msgs[i] = []byte{byte(i), byte(seed)}
			sig, err := Sign(rng, keys[idx], ring, idx, msgs[i])
			if err != nil {
				t.Fatal(err)
			}
			sigs[i] = sig
		}
		reqs := make([]VerifyRequest, batch)
		for i := range reqs {
			reqs[i] = VerifyRequest{Sig: sigs[i], Ring: ring, Msg: msgs[i]}
			if tamperMask&(1<<uint(i)) != 0 {
				// sigs[i+1] has a different signer: batch is not a
				// multiple of the ring size.
				muts := mutateSig(sigs[i], ring, msgs[i], sigs[(i+1)%batch])
				reqs[i] = muts[int(tamperMask>>8)%len(muts)].req
			}
		}
		e := &Engine{Seen: NewSigCache(64)}
		checkAgainstOracle(t, reqs, e.VerifyBatch(context.Background(), reqs))
		checkAgainstOracle(t, reqs, e.VerifyBatch(context.Background(), reqs))
	})
}

// BenchmarkMultiplications prices the three P-256 calls a ring step is
// made of, so the costs quoted in walk.go and DESIGN.md can be re-measured.
func BenchmarkMultiplications(b *testing.B) {
	_, ring := genRing(b, 1)
	ks := kernelScalars(b) // indices 8 and up are uniform random scalars
	s, c := ks[8], ks[9]
	b.Run("CombinedMult", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mulPairBase(s, c, ring[0])
		}
	})
	b.Run("ScalarMult", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mulPoint(s, ring[0])
		}
	})
	b.Run("ScalarBaseMult", func(b *testing.B) {
		var sb [32]byte
		s.FillBytes(sb[:])
		for i := 0; i < b.N; i++ {
			Curve.ScalarBaseMult(sb[:])
		}
	})
}
