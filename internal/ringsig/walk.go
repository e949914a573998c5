package ringsig

// The ring walk: the challenge chain Sign and Engine.verifyOne share,
// spread over two goroutines. Ring position i computes
//
//	c_{i+1} = H(msg, s_i·G + c_i·P_i, s_i·Hp(P_i) + c_i·I)
//
// and the term s_i·Hp(P_i) depends only on the public response s_i, never
// on the chain. So every walk starts one helper goroutine that computes
// that term for each position, in walk order, while the walker follows the
// chain: s_i·G + c_i·P_i (one CombinedMult), c_i·I, then the helper's term,
// one Add and the challenge hash.
//
// Claims: positions are claimed off one atomic cursor, the first unclaimed
// position, so each term is computed exactly once. The helper claims with
// Add. The walker, on reaching position j, claims it with
// CompareAndSwap(j, j+1) when the helper has not got there yet, and
// computes the term itself; otherwise it blocks on the helper's next
// completion token. The helper completes its positions in increasing order
// and the walker waits for them in the same order, so the token it receives
// is the one for j. The token channel holds one slot per position, so the
// helper never blocks. It exits on its first claim past the end and closes
// the channel, and finish waits for that close, so a walk leaves no
// goroutine behind. Nobody spins, and nothing is handed off per step. With
// GOMAXPROCS=1 the walker usually claims every position itself; the walk
// then costs one goroutine start and switch more than a plain loop.
//
// Only public scalars reach the helper: the decoy responses when signing,
// the published responses when verifying. The nonce α and the private
// scalar stay on the walker's caller, on stock constant-time ops.
//
// The walker's s_i·G + c_i·P_i goes through mulPairBase, the standard
// library's P-256 CombinedMult, which exists on every platform. On Go 1.24
// that call is ScalarBaseMult + ScalarMult + Add inside crypto/elliptic,
// not a fused ladder: it saves only the affine round trips between them,
// and costs about a fifth more than a single ScalarMult (82–111 µs against
// 70–91 µs for ScalarMult and 18–23 µs for ScalarBaseMult over six runs of
// BenchmarkMultiplications on a 2-vCPU amd64 VM whose speed drifted by
// about a fifth between runs).
//
// Scalars are encoded fixed-width via FillBytes: big.Int.Bytes() drops
// leading zero bytes, and while the stock API tolerates short scalars, the
// fixed 32-byte form is what the scheme specifies and what keeps encode
// length independent of scalar value. mulPairBase is treated as
// variable-time (see DESIGN.md "Verification kernels" for the
// constant-time caveat); it must only ever see public verification inputs.

import (
	"math/big"
	"sync/atomic"
)

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

// walk is one ring walk: steps positions starting at ring index from, in
// ring order modulo len(ring).
type walk struct {
	msg  []byte
	ring []Point
	s    []*big.Int
	from int
	hp   *HpCache

	terms []Point       // terms[j] = s·Hp(P) at walk position j, helper-claimed positions only
	next  atomic.Int64  // the first unclaimed walk position
	done  chan struct{} // one token per position the helper completes; closed when it exits
}

// startWalk starts the helper of a walk over positions from, from+1, …
// (steps of them) and returns the walk for its steps; the caller runs every
// step in order, then finish. Hp resolves through hp (nil computes every
// point). s must hold public scalars at every walk position, and neither s
// nor ring may change until finish returns.
func startWalk(hp *HpCache, msg []byte, ring []Point, s []*big.Int, from, steps int) *walk {
	w := &walk{
		msg: msg, ring: ring, s: s, from: from, hp: hp,
		terms: make([]Point, steps),
		done:  make(chan struct{}, steps),
	}
	go w.help()
	return w
}

// help claims positions until the cursor passes the end of the walk.
func (w *walk) help() {
	defer close(w.done)
	for {
		j := int(w.next.Add(1)) - 1
		if j >= len(w.terms) {
			return
		}
		w.terms[j] = w.term(j)
		w.done <- struct{}{}
	}
}

// index maps walk position j to its ring index.
func (w *walk) index(j int) int { return (w.from + j) % len(w.ring) }

// term returns s·Hp(P) at walk position j.
func (w *walk) term(j int) Point {
	i := w.index(j)
	return mulPoint(w.s[i], w.hp.hashPoint(w.ring[i]))
}

// step returns the challenge after walk position j, given the challenge c
// before it and the key image. Steps must run in order, j = 0, 1, ….
func (w *walk) step(j int, image Point, c *big.Int) *big.Int {
	var t Point
	if w.next.CompareAndSwap(int64(j), int64(j+1)) {
		t = w.term(j)
	} else {
		<-w.done
		t = w.terms[j]
	}
	i := w.index(j)
	return link(w.msg, w.ring[i], image, w.s[i], c, t)
}

// link returns the challenge after one ring position,
// H(msg, s·G + c·P, t + c·I), given its term t = s·Hp(P): the step that
// walks and self-checks share.
func link(msg []byte, pub, image Point, s, c *big.Int, t Point) *big.Int {
	l := mulPairBase(s, c, pub)
	ci := mulPoint(c, image)
	rx, ry := Curve.Add(t.X, t.Y, ci.X, ci.Y)
	return challenge(msg, l, Point{X: rx, Y: ry})
}

// finish returns once the helper has exited.
func (w *walk) finish() {
	for range w.done {
	}
}

// mulPoint returns k·p on the stock ScalarMult, with k encoded fixed-width.
func mulPoint(k *big.Int, p Point) Point {
	var kb [32]byte
	k.FillBytes(kb[:])
	x, y := Curve.ScalarMult(p.X, p.Y, kb[:])
	return Point{X: x, Y: y}
}
