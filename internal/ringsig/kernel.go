package ringsig

// Multiplication kernels for the challenge chain. Each ring member costs
// two point pairs:
//
//	L = s·G  + c·P   (fixed base + variable point)
//	R = s·Hp + c·I   (two variable points)
//
// mulPairBase computes L through the standard library's P-256
// CombinedMult, which exists on every platform. On Go 1.24 that call is
// ScalarBaseMult + ScalarMult + Add inside crypto/elliptic, not a fused
// ladder: it saves only the affine round trips between them, and costs
// more than a single ScalarMult (103–116 µs against 86–93 µs for
// ScalarMult and 20–26 µs for ScalarBaseMult on a 2-vCPU amd64 VM,
// BenchmarkMultiplications). The ring walk (walk.go) computes R as two
// stock ScalarMults and an Add, split across its two goroutines; mulPair
// computes the same pair in one call for the MLSAG layers.
//
// Scalars are encoded fixed-width via FillBytes: big.Int.Bytes() drops
// leading zero bytes, and while the stock API tolerates short scalars, the
// fixed 32-byte form is what the scheme specifies and what keeps encode
// length independent of scalar value. The kernels are treated as
// variable-time (see DESIGN.md "Verification kernels" for the
// constant-time caveat); they must only ever see public verification
// inputs.

import "math/big"

// combinedMulter is the fused double-scalar interface crypto/elliptic's
// P-256 implements.
type combinedMulter interface {
	CombinedMult(bigX, bigY *big.Int, baseScalar, scalar []byte) (x, y *big.Int)
}

// p256Combined is asserted once, single-valued: a toolchain whose P-256
// lacks CombinedMult fails at init rather than verifying on a slower path.
var p256Combined = Curve.(combinedMulter)

// mulPairBase returns s·G + c·P for public verification scalars. Secret
// scalars must never reach this entry point (cttime enforces the
// annotation).
//
//tmlint:hotpath
//tmlint:vartime
func mulPairBase(s, c *big.Int, pub Point) Point {
	var sb, cb [32]byte
	s.FillBytes(sb[:])
	c.FillBytes(cb[:])
	x, y := p256Combined.CombinedMult(pub.X, pub.Y, sb[:], cb[:])
	return Point{X: x, Y: y}
}

// mulPair returns a·Q + b·R for public verification scalars. Same
// variable-time contract as mulPairBase.
//
//tmlint:hotpath
//tmlint:vartime
func mulPair(a *big.Int, q Point, b *big.Int, r Point) Point {
	var ab, bb [32]byte
	a.FillBytes(ab[:])
	b.FillBytes(bb[:])
	qx, qy := Curve.ScalarMult(q.X, q.Y, ab[:])
	rx, ry := Curve.ScalarMult(r.X, r.Y, bb[:])
	x, y := Curve.Add(qx, qy, rx, ry)
	return Point{X: x, Y: y}
}
