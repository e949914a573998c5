package ringsig

// The test oracle: sign and verify written directly against the generic
// elliptic.Curve API, as the package did before the ring walk existed —
// one ScalarBaseMult, three ScalarMult and two Add per ring member, with a
// big.Int ModSqrt hash-to-point and no caches, on one goroutine.
//
// Production never runs it. The differential tests hold the one production
// path (Engine.sign, verifyOne and the walk) to it: byte-identical
// signatures from the same rng stream, and the same verdict, error identity
// included, on every valid and tampered input (kernel_test.go, the
// cttime_fix_test.go encoding checks and FuzzVerifyBatchEquivalence).
//
// The only definitional deltas from the pre-walk code are shared with the
// production path: the hash-to-point domain tag is v2 and the square root
// is canonicalised to the even y (oracleHashToPoint below computes it the
// old ModSqrt way and must agree bit-for-bit with the compressed-point fast
// path in hpcache.go).

import (
	"crypto/sha256"
	"io"
	"math/big"
)

// oracleSign is Sign on stock curve ops. Given the same rng stream, Sign
// must produce a byte-identical signature.
func oracleSign(rng io.Reader, sk *PrivateKey, ring []Point, signerIdx int, msg []byte) (*Signature, error) {
	n := len(ring)
	if n < 2 {
		return nil, ErrSmallRing
	}
	if signerIdx < 0 || signerIdx >= n || !ring[signerIdx].Equal(sk.Public) {
		return nil, ErrNotInRing
	}
	for _, p := range ring {
		if p.IsZero() || !Curve.IsOnCurve(p.X, p.Y) {
			return nil, ErrBadRingKeys
		}
	}
	order := Curve.Params().N
	image := oracleKeyImage(sk)

	alpha, err := randScalar(rng)
	if err != nil {
		return nil, err
	}
	s := make([]*big.Int, n)
	c := make([]*big.Int, n)

	// α is a secret nonce: encode it fixed-width so the byte length handed
	// to the curve ops never depends on its leading zero bits. The point
	// results are identical (same scalar value), which the differential
	// tests in cttime_fix_test.go pin down byte-for-byte.
	var ab [32]byte
	alpha.FillBytes(ab[:])
	agx, agy := Curve.ScalarBaseMult(ab[:])
	hpPi := oracleHashToPoint(ring[signerIdx])
	ahx, ahy := Curve.ScalarMult(hpPi.X, hpPi.Y, ab[:])
	c[(signerIdx+1)%n] = challenge(msg, Point{agx, agy}, Point{ahx, ahy})

	for off := 1; off < n; off++ {
		i := (signerIdx + off) % n
		s[i], err = randResponse(rng)
		if err != nil {
			return nil, err
		}
		c[(i+1)%n] = oracleRingStep(msg, ring[i], image, s[i], c[i])
	}

	sPi := new(big.Int).Mul(c[signerIdx], sk.D)
	sPi.Sub(alpha, sPi)
	sPi.Mod(sPi, order)
	s[signerIdx] = sPi

	return &Signature{C0: c[0], S: s, Image: image}, nil
}

// oracleVerify is Verify on stock curve ops, with the pre-walk check
// structure (lazy in-loop scalar range checks, no caches).
func oracleVerify(sig *Signature, ring []Point, msg []byte) error {
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
		c = oracleRingStep(msg, ring[i], sig.Image, sig.S[i], c)
	}
	if c.Cmp(sig.C0) != 0 {
		return ErrInvalid
	}
	return nil
}

// oracleKeyImage is KeyImage on the stock ops (identical result; kept so the
// oracle is self-contained).
func oracleKeyImage(k *PrivateKey) Point {
	hp := oracleHashToPoint(k.Public)
	var kb [32]byte
	k.D.FillBytes(kb[:])
	x, y := Curve.ScalarMult(hp.X, hp.Y, kb[:])
	return Point{X: x, Y: y}
}

// oracleRingStep computes one challenge-chain step with unfused stock ops.
// Scalars are reduced mod N and encoded fixed-width: c may exceed the group
// order here (a tampered C0 reaches the first step unreduced), and for
// 0 ≤ k the curve computes k·P = (k mod N)·P anyway, so the reduction
// changes no point and keeps FillBytes from panicking on oversized input.
func oracleRingStep(msg []byte, pub, image Point, s, c *big.Int) *big.Int {
	var sb, cb [32]byte
	reduceScalar(s).FillBytes(sb[:])
	reduceScalar(c).FillBytes(cb[:])
	sgx, sgy := Curve.ScalarBaseMult(sb[:])
	cpx, cpy := Curve.ScalarMult(pub.X, pub.Y, cb[:])
	lx, ly := Curve.Add(sgx, sgy, cpx, cpy)

	hp := oracleHashToPoint(pub)
	shx, shy := Curve.ScalarMult(hp.X, hp.Y, sb[:])
	cix, ciy := Curve.ScalarMult(image.X, image.Y, cb[:])
	rx, ry := Curve.Add(shx, shy, cix, ciy)

	return challenge(msg, Point{lx, ly}, Point{rx, ry})
}

// reduceScalar returns k mod N without copying when k is already in range.
func reduceScalar(k *big.Int) *big.Int {
	if k.Sign() >= 0 && k.Cmp(curveN) < 0 {
		return k
	}
	return new(big.Int).Mod(k, curveN)
}

// oracleHashToPoint is the reference hash-to-point: the same iterated
// hash-and-increment as hashToPoint, with the square root computed by
// big.Int ModSqrt and canonicalised to the even root. Must agree
// bit-for-bit with the compressed-point fast path.
func oracleHashToPoint(p Point) Point {
	seed := sha256.Sum256(append([]byte(hpDomain), p.Bytes()...))
	x := new(big.Int).SetBytes(seed[:])
	x.Mod(x, curveP)
	one := big.NewInt(1)
	for i := 0; i < 1000; i++ {
		if y := evenSqrtRHS(x); y != nil {
			return Point{X: new(big.Int).Set(x), Y: y}
		}
		x.Add(x, one)
		x.Mod(x, curveP)
	}
	panic("ringsig: hash-to-point failed after 1000 attempts")
}

// curveB is the b coefficient of y² = x³ − 3x + b.
var curveB = Curve.Params().B

// evenSqrtRHS returns the even square root of x³ − 3x + b (mod p) when the
// value is a quadratic residue, nil otherwise.
func evenSqrtRHS(x *big.Int) *big.Int {
	y2 := new(big.Int).Mul(x, x)
	y2.Mul(y2, x)
	threeX := new(big.Int).Lsh(x, 1)
	threeX.Add(threeX, x)
	y2.Sub(y2, threeX)
	y2.Add(y2, curveB)
	y2.Mod(y2, curveP)
	y := new(big.Int).ModSqrt(y2, curveP)
	if y == nil {
		return nil
	}
	// Verify (ModSqrt can misfire only if y2 was not a residue, in which
	// case it returns nil; this is belt and braces).
	check := new(big.Int).Mul(y, y)
	check.Mod(check, curveP)
	if check.Cmp(y2) != 0 {
		return nil
	}
	if y.Bit(0) == 1 {
		y.Sub(curveP, y)
	}
	return y
}
