package ringsig

// Tests for the fixes the cttime analyzer forced (see DESIGN.md
// "Constant-time policy"):
//
//   - the stock-curve code, now the test oracle in stock_oracle_test.go,
//     encodes every secret scalar fixed-width (FillBytes(32)) instead of
//     variable-width Bytes(). The scalar VALUES are unchanged, so the
//     differential tests here prove signatures byte-identical and verify
//     decisions unchanged against test-local copies of the pre-fix
//     encodings. The production path is held to the oracle by
//     kernel_test.go, so these pin the chain back to the pre-fix code.
//   - sigcache.go's transcript key encodes C0 fixed-width (v2): the
//     collision tests demonstrate the aliasing a naive variable-width
//     concatenation admits and pin that the shipped key is injective across
//     boundary-shifted transcripts.
//   - a dudect-style paired Welch's t-test smoke compares Sign latency
//     across fixed-vs-random secret bit patterns (advisory only).

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"math"
	"math/big"
	"testing"
	"time"
)

// prefixStockSign is the pre-fix oracleSign: variable-width alpha.Bytes()
// handed to the curve ops, same rng draw order. Kept test-local as the
// differential baseline proving the FillBytes fix changed no output.
func prefixStockSign(rng *detReader, sk *PrivateKey, ring []Point, signerIdx int, msg []byte) (*Signature, error) {
	n := len(ring)
	order := Curve.Params().N
	image := prefixStockKeyImage(sk)

	alpha, err := randScalar(rng)
	if err != nil {
		return nil, err
	}
	s := make([]*big.Int, n)
	c := make([]*big.Int, n)

	agx, agy := Curve.ScalarBaseMult(alpha.Bytes())
	hpPi := oracleHashToPoint(ring[signerIdx])
	ahx, ahy := Curve.ScalarMult(hpPi.X, hpPi.Y, alpha.Bytes())
	c[(signerIdx+1)%n] = challenge(msg, Point{agx, agy}, Point{ahx, ahy})

	for off := 1; off < n; off++ {
		i := (signerIdx + off) % n
		s[i], err = randScalar(rng)
		if err != nil {
			return nil, err
		}
		c[(i+1)%n] = prefixStockRingStep(msg, ring[i], image, s[i], c[i])
	}

	sPi := new(big.Int).Mul(c[signerIdx], sk.D)
	sPi.Sub(alpha, sPi)
	sPi.Mod(sPi, order)
	s[signerIdx] = sPi

	return &Signature{C0: c[0], S: s, Image: image}, nil
}

func prefixStockKeyImage(k *PrivateKey) Point {
	hp := oracleHashToPoint(k.Public)
	x, y := Curve.ScalarMult(hp.X, hp.Y, k.D.Bytes())
	return Point{X: x, Y: y}
}

func prefixStockRingStep(msg []byte, pub, image Point, s, c *big.Int) *big.Int {
	sgx, sgy := Curve.ScalarBaseMult(s.Bytes())
	cpx, cpy := Curve.ScalarMult(pub.X, pub.Y, c.Bytes())
	lx, ly := Curve.Add(sgx, sgy, cpx, cpy)

	hp := oracleHashToPoint(pub)
	shx, shy := Curve.ScalarMult(hp.X, hp.Y, s.Bytes())
	cix, ciy := Curve.ScalarMult(image.X, image.Y, c.Bytes())
	rx, ry := Curve.Add(shx, shy, cix, ciy)

	return challenge(msg, Point{lx, ly}, Point{rx, ry})
}

// prefixStockVerify is oracleVerify with the pre-fix variable-width chain.
func prefixStockVerify(sig *Signature, ring []Point, msg []byte) error {
	n := len(ring)
	if sig == nil || n < 2 || len(sig.S) != n || sig.C0 == nil {
		return ErrInvalid
	}
	if sig.Image.IsZero() || !Curve.IsOnCurve(sig.Image.X, sig.Image.Y) {
		return ErrInvalid
	}
	for _, p := range ring {
		if p.IsZero() || !Curve.IsOnCurve(p.X, p.Y) {
			return ErrBadRingKeys
		}
	}
	order := Curve.Params().N
	c := new(big.Int).Set(sig.C0)
	for i := 0; i < n; i++ {
		if sig.S[i] == nil || sig.S[i].Sign() < 0 || sig.S[i].Cmp(order) >= 0 {
			return ErrInvalid
		}
		c = prefixStockRingStep(msg, ring[i], sig.Image, sig.S[i], c)
	}
	if c.Cmp(sig.C0) != 0 {
		return ErrInvalid
	}
	return nil
}

// TestStockSignFixedWidthByteIdentical proves the FillBytes(32) fix is a
// pure encoding change: given the same rng stream, the fixed-width oracleSign
// emits bit-for-bit the signature the variable-width pre-fix code produced,
// for every signer position.
func TestStockSignFixedWidthByteIdentical(t *testing.T) {
	keyRng := newDetReader("cttime-fix-keys")
	keys := make([]*PrivateKey, 6)
	ring := make([]Point, 6)
	for i := range keys {
		k, err := GenerateKey(keyRng)
		if err != nil {
			t.Fatal(err)
		}
		keys[i], ring[i] = k, k.Public
	}
	msg := []byte("fixed-width encoding differential")
	for idx := range keys {
		got, err := oracleSign(newDetReader("cttime-fix-nonces"), keys[idx], ring, idx, msg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := prefixStockSign(newDetReader("cttime-fix-nonces"), keys[idx], ring, idx, msg)
		if err != nil {
			t.Fatal(err)
		}
		if got.C0.Cmp(want.C0) != 0 {
			t.Fatalf("idx %d: C0 differs after encoding fix: %v vs %v", idx, got.C0, want.C0)
		}
		if !got.Image.Equal(want.Image) {
			t.Fatalf("idx %d: key image differs after encoding fix", idx)
		}
		for i := range got.S {
			if got.S[i].Cmp(want.S[i]) != 0 {
				t.Fatalf("idx %d: s[%d] differs after encoding fix", idx, i)
			}
		}
		if err := oracleVerify(got, ring, msg); err != nil {
			t.Fatalf("idx %d: fixed-width signature rejected: %v", idx, err)
		}
	}
}

// TestStockVerifyDecisionsUnchangedByEncoding runs the tamper grid through
// both verifier encodings: every verdict, error identity included, must
// agree, including the oversized and negative C0 cases that exercise the
// reduceScalar guard in front of FillBytes.
func TestStockVerifyDecisionsUnchangedByEncoding(t *testing.T) {
	keys, ring := genRing(t, 5)
	msg := []byte("decision parity across encodings")
	sig, err := Sign(rand.Reader, keys[2], ring, 2, msg)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Sign(rand.Reader, keys[0], ring, 0, msg)
	if err != nil {
		t.Fatal(err)
	}
	cases := append([]tamper{{"valid", VerifyRequest{Sig: sig, Ring: ring, Msg: msg}}},
		mutateSig(sig, ring, msg, other)...)
	for _, tc := range cases {
		got := oracleVerify(tc.req.Sig, tc.req.Ring, tc.req.Msg)
		want := prefixStockVerify(tc.req.Sig, tc.req.Ring, tc.req.Msg)
		if !errors.Is(got, want) {
			t.Errorf("%s: verdict differs: fixed-width %v, pre-fix %v", tc.name, got, want)
		}
	}
}

// naiveTranscriptKey is the strawman the SigCache fix guards against: raw
// concatenation with a variable-width C0 and no length framing anywhere.
func naiveTranscriptKey(sig *Signature, ring []Point, msg []byte) [32]byte {
	h := sha256.New()
	hashWrite(h, []byte("naive"), msg, sig.C0.Bytes())
	for _, p := range ring {
		hashWrite(h, p.Bytes())
	}
	for _, s := range sig.S {
		hashWrite(h, s.Bytes())
	}
	hashWrite(h, sig.Image.Bytes())
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// TestTranscriptKeyBoundaryCollisions constructs the aliasing pair the
// naive encoding admits — a byte moved across the msg/C0 boundary — and
// asserts the shipped fixed-width v2 key distinguishes every such pair.
func TestTranscriptKeyBoundaryCollisions(t *testing.T) {
	_, ring := genRing(t, 3)
	mkSig := func(c0 *big.Int) *Signature {
		return &Signature{
			C0:    c0,
			S:     []*big.Int{big.NewInt(5), big.NewInt(6), big.NewInt(7)},
			Image: ring[0],
		}
	}

	// Shift the leading C0 byte into the message: both transcripts
	// concatenate to the same byte stream.
	msgA := []byte("tx")
	c0A := new(big.Int).SetBytes([]byte{0xAA, 0xBB})
	msgB := append([]byte("tx"), 0xAA)
	c0B := new(big.Int).SetBytes([]byte{0xBB})

	sigA, sigB := mkSig(c0A), mkSig(c0B)
	if naiveTranscriptKey(sigA, ring, msgA) != naiveTranscriptKey(sigB, ring, msgB) {
		t.Fatal("the naive key was expected to collide on the boundary-shifted pair (demo broken)")
	}
	if transcriptKey(sigA, ring, msgA) == transcriptKey(sigB, ring, msgB) {
		t.Fatal("fixed-width transcript key collides on a boundary-shifted pair")
	}

	// A battery of legal C0 widths against message paddings that keep the
	// naive concatenation aligned: all must stay distinct under v2.
	widths := []*big.Int{
		big.NewInt(1),
		big.NewInt(0x80),
		new(big.Int).SetBytes(bytes.Repeat([]byte{0x7F}, 16)),
		new(big.Int).Sub(curveN, big.NewInt(1)),
	}
	seen := make(map[[32]byte]string)
	for _, c0 := range widths {
		enc := c0.Bytes()
		for shift := 0; shift <= len(enc) && shift <= 4; shift++ {
			m := append([]byte("m"), enc[:shift]...)
			s := mkSig(new(big.Int).SetBytes(enc[shift:]))
			key := transcriptKey(s, ring, m)
			label := string(m) + "|" + s.C0.String()
			if prev, dup := seen[key]; dup {
				t.Fatalf("transcript key collision between %q and %q", prev, label)
			}
			seen[key] = label
		}
	}
}

// TestTranscriptCacheRejectsBeforeKeying pins the order verifyOne relies on
// for FillBytes safety: an out-of-range C0 is rejected before the cache is
// consulted, so transcriptKey never sees one (no panic) and rejects are
// never recorded.
func TestTranscriptCacheRejectsBeforeKeying(t *testing.T) {
	keys, ring := genRing(t, 3)
	msg := []byte("cache ordering")
	sig, err := Sign(rand.Reader, keys[0], ring, 0, msg)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Seen: NewSigCache(16)}

	for _, bad := range []*big.Int{
		new(big.Int).Set(curveN),
		new(big.Int).Lsh(big.NewInt(1), 300),
		big.NewInt(-1),
	} {
		tampered := &Signature{C0: bad, S: sig.S, Image: sig.Image}
		if err := e.Verify(tampered, ring, msg); err == nil {
			t.Fatalf("out-of-range C0 %v accepted", bad)
		}
		if e.Seen.Len() != 0 {
			t.Fatalf("reject with C0 %v was recorded in the cache", bad)
		}
	}

	if err := e.Verify(sig, ring, msg); err != nil {
		t.Fatal(err)
	}
	if e.Seen.Len() != 1 {
		t.Fatalf("successful verification not cached: len=%d", e.Seen.Len())
	}
}

// TestPointBytesFixedWidth pins the fact the unframed challenge transcript
// relies on: every point a verifier admits (on-curve, non-zero) marshals to
// exactly 65 bytes, so the msg|L|R boundaries cannot shift.
func TestPointBytesFixedWidth(t *testing.T) {
	_, ring := genRing(t, 4)
	pts := append([]Point{}, ring...)
	pts = append(pts, hashToPoint(ring[0]), hashToPoint(ring[3]))
	for i, p := range pts {
		if got := len(p.Bytes()); got != 65 {
			t.Errorf("point %d marshals to %d bytes, want 65", i, got)
		}
	}
}

// TestSignLatencySecretIndependence is a dudect-style smoke: Welch's t-test
// on Sign latency between a fixed secret key and fresh random keys, using
// the order-balanced paired-rounds technique from TestTraceOverheadPaired
// so machine drift biases both classes equally. Advisory only — timing
// noise on shared runners swamps small effects, so the test logs the
// statistic instead of failing on it (dudect's |t| > 4.5 convention marks a
// likely leak).
func TestSignLatencySecretIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("timing smoke; skipped with -short")
	}

	const ringSize, K, R = 4, 12, 10

	decoyKeys, _ := genRing(t, ringSize-1)
	decoys := make([]Point, ringSize-1)
	for i, k := range decoyKeys {
		decoys[i] = k.Public
	}
	mkRing := func(signer Point) []Point {
		return append([]Point{signer}, decoys...)
	}

	fixedKey, err := GenerateKey(newDetReader("welch-fixed-secret"))
	if err != nil {
		t.Fatal(err)
	}
	fixedRing := mkRing(fixedKey.Public)

	randomKeys := make([]*PrivateKey, K*R)
	randomRings := make([][]Point, K*R)
	for i := range randomKeys {
		k, err := GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		randomKeys[i] = k
		randomRings[i] = mkRing(k.Public)
	}

	msg := []byte("latency independence smoke")
	signOnce := func(k *PrivateKey, ring []Point) {
		if _, err := Sign(rand.Reader, k, ring, 0, msg); err != nil {
			t.Fatal(err)
		}
	}

	// Warm both paths (hash-to-point, allocator, branch predictors).
	for i := 0; i < 8; i++ {
		signOnce(fixedKey, fixedRing)
		signOnce(randomKeys[i], randomRings[i])
	}

	var fixedNs, randomNs [R]float64
	next := 0
	measureFixed := func() float64 {
		start := time.Now()
		for i := 0; i < K; i++ {
			signOnce(fixedKey, fixedRing)
		}
		return float64(time.Since(start).Nanoseconds()) / K
	}
	measureRandom := func() float64 {
		start := time.Now()
		for i := 0; i < K; i++ {
			signOnce(randomKeys[next], randomRings[next])
			next++
		}
		return float64(time.Since(start).Nanoseconds()) / K
	}
	for r := 0; r < R; r++ {
		if r%2 == 0 {
			fixedNs[r] = measureFixed()
			randomNs[r] = measureRandom()
		} else {
			randomNs[r] = measureRandom()
			fixedNs[r] = measureFixed()
		}
	}

	mean := func(xs [R]float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / R
	}
	variance := func(xs [R]float64, m float64) float64 {
		var s float64
		for _, x := range xs {
			s += (x - m) * (x - m)
		}
		return s / (R - 1)
	}
	mf, mr := mean(fixedNs), mean(randomNs)
	vf, vr := variance(fixedNs, mf), variance(randomNs, mr)
	tStat := (mf - mr) / math.Sqrt(vf/R+vr/R)

	t.Logf("fixed-secret mean %.0fns, random-secret mean %.0fns over %d rounds x %d ops", mf, mr, R, K)
	t.Logf("Welch's t = %+.2f (|t| > 4.5 would suggest secret-dependent timing)", tStat)
	if math.Abs(tStat) > 4.5 {
		t.Logf("ADVISORY: |t| exceeds the dudect threshold; investigate before trusting this runner's numbers")
	}
}
