// Package ringsig implements a linkable ring signature scheme in the style
// of bLSAG (back's Linkable Spontaneous Anonymous Group signatures) over the
// NIST P-256 curve, using only the standard library. It provides the Step-2
// (Gen) and Step-3 (Ver) halves of the RS scheme the paper builds on:
//
//   - a signer proves knowledge of the private key of exactly one public key
//     in a ring without revealing which,
//   - every signature carries a key image I = x·Hp(P) that is unique per
//     key, so a second spend of the same token is detected by key-image
//     equality without learning which token was spent.
//
// The DA-MS algorithms themselves never touch this package; it exists so the
// repository exercises the full pipeline (select mixins → sign → verify →
// reject double spends) end to end, exactly as a blockchain node would.
package ringsig

import (
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/big"
	"math/bits"
	"runtime"
)

// Curve is the group all keys and signatures live in.
var Curve = elliptic.P256()

// Cached curve constants: the field prime and the group order.
var (
	curveP = Curve.Params().P
	curveN = Curve.Params().N
)

// Point is an elliptic curve point in affine coordinates.
type Point struct {
	X, Y *big.Int
}

// IsZero reports whether the point is the (unset) identity placeholder.
func (p Point) IsZero() bool { return p.X == nil || p.Y == nil }

// Equal reports whether two points are the same.
func (p Point) Equal(q Point) bool {
	if p.IsZero() || q.IsZero() {
		return p.IsZero() && q.IsZero()
	}
	return p.X.Cmp(q.X) == 0 && p.Y.Cmp(q.Y) == 0
}

// Bytes returns the uncompressed SEC1 encoding.
func (p Point) Bytes() []byte {
	if p.IsZero() {
		return []byte{0}
	}
	return elliptic.Marshal(Curve, p.X, p.Y)
}

// PrivateKey is a scalar x with its public point P = x·G.
type PrivateKey struct {
	// D is the private scalar. Secret: it must never reach logs, error
	// strings, JSON encoding or metric labels, and cttime keeps it off
	// timing side channels.
	//
	//tmlint:secret
	D      *big.Int
	Public Point
}

// GenerateKey creates a fresh keypair from the given entropy source
// (crypto/rand.Reader in production, a deterministic reader in tests). It
// is GenerateKeys with n = 1.
func GenerateKey(rng io.Reader) (*PrivateKey, error) {
	keys, err := GenerateKeys(rng, 1)
	if err != nil {
		return nil, err
	}
	return keys[0], nil
}

// GenerateKeys creates n keypairs from rng. The caller's goroutine draws
// every private scalar in stream order, so a seeded rng fixes every key
// whatever GOMAXPROCS is. The public points x·G then run on up to
// GOMAXPROCS workers: they are independent, and a node keying its whole
// ledger spends almost all of its start-up here. x is secret, so it only
// ever meets the stock constant-time ScalarBaseMult, fixed-width encoded.
// All n keys live in one exact-width slab (see keySlot).
func GenerateKeys(rng io.Reader, n int) ([]*PrivateKey, error) {
	slab := make([]keySlot, n)
	keys := make([]*PrivateKey, n)
	for i := range slab {
		d, err := randScalar(rng)
		if err != nil {
			return nil, fmt.Errorf("ringsig: keygen: %w", err)
		}
		var b [32]byte
		d.FillBytes(b[:])
		s := &slab[i]
		setWindow(&s.d, s.dw[:0:words256], &b)
		s.key.D = &s.d
		keys[i] = &s.key
	}
	parallelFor(runtime.GOMAXPROCS(0), n, func(i int) {
		s := &slab[i]
		var d [32]byte
		s.d.FillBytes(d[:])
		x, y := Curve.ScalarBaseMult(d[:])
		s.pub.set(Point{X: x, Y: y})
		s.key.Public = s.pub.point()
	})
	return keys, nil
}

// Exact-width storage. A key or Hp memo entry lives as long as the node,
// and each of its 256-bit values would cost 96 B as a math/big result: a
// 32-B header plus a separately allocated 8-word array, because math/big
// pads every fresh array by 4 words. A slab element instead holds the
// headers and exactly the words they use, one allocation per registry.
// Each big.Int is backed by its own window of the element's array, cut with
// a full slice expression, so an in-place op that outgrows 256 bits
// reallocates instead of writing into the next value. A slab is never
// copied or grown after it is filled, and any key or entry still held
// keeps its whole slab alive.

// words256 is the width of one value's window.
const words256 = 256 / bits.UintSize

// setWindow sets z to the 32-byte big-endian value b, stored in w, a
// zero-length window with room for exactly words256 words.
func setWindow(z *big.Int, w []big.Word, b *[32]byte) {
	z.SetBits(w)
	z.SetBytes(b[:])
}

// pointSlot is one point's exact-width storage.
type pointSlot struct {
	x, y big.Int
	w    [2 * words256]big.Word
}

// set copies p into the slot, fixed-width encoded.
func (s *pointSlot) set(p Point) {
	var b [32]byte
	p.X.FillBytes(b[:])
	setWindow(&s.x, s.w[:0:words256], &b)
	p.Y.FillBytes(b[:])
	setWindow(&s.y, s.w[words256:words256:2*words256], &b)
}

// point returns the stored point; its coordinates are the slot's own.
func (s *pointSlot) point() Point { return Point{X: &s.x, Y: &s.y} }

// keySlot is one key's exact-width storage: the PrivateKey that
// GenerateKeys hands out, its scalar and its public point.
type keySlot struct {
	key PrivateKey
	d   big.Int
	dw  [words256]big.Word
	pub pointSlot
}

// KeyImage computes I = x·Hp(P), the linkability tag. Two signatures by the
// same key always share the image; images of different keys collide only
// with negligible probability.
func (k *PrivateKey) KeyImage() Point {
	return k.image(hashToPoint(k.Public))
}

// image returns x·hp, the key image given hp = Hp(P). The multiplication
// involves the private scalar, so it stays on the stock constant-time
// ScalarMult — never the variable-time verification kernels — with the
// scalar encoded fixed-width (Bytes() would shorten the encoding for
// scalars with leading zero bytes).
func (k *PrivateKey) image(hp Point) Point {
	var d [32]byte
	k.D.FillBytes(d[:])
	x, y := Curve.ScalarMult(hp.X, hp.Y, d[:])
	return Point{X: x, Y: y}
}

// Signature is a bLSAG ring signature: the initial challenge c₀ plus one
// response scalar per ring member, and the key image.
type Signature struct {
	C0    *big.Int
	S     []*big.Int
	Image Point
}

// Errors returned by signing and verification.
var (
	ErrInvalid     = errors.New("ringsig: invalid signature")
	ErrNotInRing   = errors.New("ringsig: signer's public key not in ring")
	ErrSmallRing   = errors.New("ringsig: ring must contain at least 2 keys")
	ErrBadRingKeys = errors.New("ringsig: ring contains an invalid point")
)

// Sign produces a ring signature over msg with the given ring of public
// keys. signerIdx is the position of sk's public key inside ring. rng
// supplies the per-signature nonces. It is a thin wrapper over a cache-less
// Engine; callers signing over a known key population should hold an
// Engine whose Hp memo covers it.
func Sign(rng io.Reader, sk *PrivateKey, ring []Point, signerIdx int, msg []byte) (*Signature, error) {
	return defaultEngine.sign(rng, sk, ring, signerIdx, msg, nil)
}

// sign is the package Sign with hash-to-point resolved through e.Hp. For
// the same rng stream it produces the same signature bytes. A non-nil ck
// is started on the signature once its decoy responses, key image and
// first challenge exist, and is handed each further link as the walk
// produces it; the last link, the one that reads s_π, is the caller's to
// hand over once sign has returned.
func (e *Engine) sign(rng io.Reader, sk *PrivateKey, ring []Point, signerIdx int, msg []byte, ck *selfCheck) (*Signature, error) {
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

	alpha, err := randScalar(rng)
	if err != nil {
		return nil, err
	}
	s := make([]*big.Int, n)
	c := make([]*big.Int, n)
	// Random responses for every other member, drawn after α in walk
	// order: the rng stream's order, which same-stream signatures (and the
	// test oracle) depend on.
	for off := 1; off < n; off++ {
		if s[(signerIdx+off)%n], err = randResponse(rng); err != nil {
			return nil, err
		}
	}
	// The signer's response gets its slot now and its value when the ring
	// closes (C0 likewise, below), so the signature has its final shape
	// before a self-check sees it.
	s[signerIdx] = new(big.Int)
	// The walk covers the decoys only. Its helper starts now, so its
	// wake-up overlaps the key image and the α step below.
	w := startWalk(e.Hp, msg, ring, s, signerIdx+1, n-1)

	// Start the ring at the signer: c_{π+1} = H(msg, α·G, α·Hp(P_π)).
	// α and x are secret, so the key image and these two multiplications
	// use the stock constant-time ops with fixed-width scalar encoding —
	// the walk only ever sees the public decoy scalars.
	hpPi := e.Hp.hashPoint(sk.Public)
	image := sk.image(hpPi)
	var ab [32]byte
	alpha.FillBytes(ab[:])
	agx, agy := Curve.ScalarBaseMult(ab[:])
	ahx, ahy := Curve.ScalarMult(hpPi.X, hpPi.Y, ab[:])
	c[(signerIdx+1)%n] = challenge(msg, Point{agx, agy}, Point{ahx, ahy})
	sig := &Signature{C0: new(big.Int), S: s, Image: image}
	if ck != nil {
		ck.start(sig, c, signerIdx+1)
	}

	// Walk the ring through the decoys:
	// c_{i+1} = H(msg, s_i·G + c_i·P_i, s_i·Hp(P_i) + c_i·I). Each step
	// completes the link at its own position for the checker.
	for j := 0; j < n-1; j++ {
		i := (signerIdx + 1 + j) % n
		c[(i+1)%n] = w.step(j, image, c[i])
		if ck != nil {
			ck.ready <- struct{}{}
		}
	}
	w.finish()

	// Close the ring: s_π = α − c_π·x (mod N).
	sPi := new(big.Int).Mul(c[signerIdx], sk.D)
	sPi.Sub(alpha, sPi)
	s[signerIdx].Mod(sPi, order)
	sig.C0.Set(c[0])
	return sig, nil
}

// Verify checks the signature over msg against the ring. It is a thin
// wrapper over a cache-less Engine, whose ring walk computes the chain.
// Callers verifying many signatures should hold an Engine (or call
// VerifyBatch) so the hash-to-point memo and transcript cache amortise.
func Verify(sig *Signature, ring []Point, msg []byte) error {
	return defaultEngine.Verify(sig, ring, msg)
}

// Linked reports whether two signatures were produced by the same private
// key (same key image) — the double-spend check a verifier node performs.
func Linked(a, b *Signature) bool {
	if a == nil || b == nil {
		return false
	}
	return a.Image.Equal(b.Image)
}

// challenge hashes the transcript into a scalar mod N.
func challenge(msg []byte, l, r Point) *big.Int {
	h := sha256.New()
	hashWrite(h, []byte("tokenmagic/blsag/v1"), msg, l.Bytes(), r.Bytes())
	d := new(big.Int).SetBytes(h.Sum(nil))
	return d.Mod(d, Curve.Params().N)
}

// hashWrite absorbs parts into h. hash.Hash documents that Write never
// returns an error, so a failure can only mean a broken implementation —
// in a signature transcript that must be fatal, not silent.
func hashWrite(h hash.Hash, parts ...[]byte) {
	for _, p := range parts {
		if _, err := h.Write(p); err != nil {
			panic("ringsig: hash write failed: " + err.Error())
		}
	}
}

// randScalar draws a uniform scalar in [1, N-1]. Its result is a
// per-signature nonce or response scalar; leaking one alongside the
// challenge recovers the private key, so the result is secret-tainted.
//
//tmlint:secret
func randScalar(rng io.Reader) (*big.Int, error) {
	order := Curve.Params().N
	for {
		k, err := rand.Int(rng, order)
		if err != nil {
			return nil, fmt.Errorf("ringsig: entropy: %w", err)
		}
		if k.Sign() > 0 {
			return k, nil
		}
	}
}

// randResponse draws a uniform decoy response scalar. It is the same draw
// as randScalar, but the result is NOT secret-tainted: decoy responses are
// published verbatim in the signature (public by construction), so they may
// legitimately flow into the variable-time verification kernels during
// signing. Declassification happens here, at an explicit named boundary,
// rather than by suppressing cttime at every decoy call site.
func randResponse(rng io.Reader) (*big.Int, error) {
	return randScalar(rng)
}
