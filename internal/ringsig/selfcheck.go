package ringsig

// Sign and self-verify. A spend signs its ring and then verifies the
// signature it has just made: the paper's Steps 2 and 3, back to back.
// Verification walks the challenge chain one link at a time, because each
// c_{i+1} needs c_i, so neither walk keeps a second core busy. But the
// signer already holds every c_i while it signs, and each link
//
//	c_{i+1} = H(msg, s_i·G + c_i·P_i, s_i·Hp(P_i) + c_i·I)
//
// can be checked on its own as soon as the walk has produced both of its
// challenges. So SignVerifiedCtx runs one checker goroutine next to the sign
// walk. When every link holds and the walk's chain closes at the
// signature's C0, sequential verification from C0 reproduces that chain and
// accepts. When anything fails, the call returns Engine.Verify's verdict.
//
// Independence: a check recomputes s_i·G + c_i·P_i, s_i·Hp(P_i) and c_i·I
// from the signature's public values through link, the walk's own step
// function, and reuses no point or term the sign walk computed. It is as
// independent of signing as Engine.Verify is.
//
// Scheduling: links are claimed in walk order off one atomic cursor. The
// checker claims with Add and, when it has caught up with the walk, waits
// for the walk's next token: sign sends one per link whose challenges
// exist, into a channel with one slot per link, so the walker never blocks
// on the checker. The last link reads the closing response s_π, and the
// checker gets it only once sign has returned the signature: returning is
// where s_π, published in the signature, stops being secret (DESIGN.md
// "Constant-time policy"). The walker then claims links alongside the
// checker until none is left, and waits for the checker to exit, so no
// goroutine outlives the call. With GOMAXPROCS=1 the links are checked one
// after another once the walk is done, as sequential verification would.

import (
	"context"
	"io"
	"math/big"
	"sync/atomic"

	"tokenmagic/internal/obs/trace"
)

// SelfCheckError reports that a signature SignVerifiedCtx produced did not
// verify. Err is Engine.Verify's verdict on it.
type SelfCheckError struct{ Err error }

func (e *SelfCheckError) Error() string { return "ringsig: self-verification failed: " + e.Err.Error() }

// Unwrap returns Engine.Verify's verdict.
func (e *SelfCheckError) Unwrap() error { return e.Err }

// Test hooks, nil outside tests.
var (
	// testHookChecked replaces the signature, ring and message the
	// self-check verifies and the call returns, before any link is read:
	// a stand-in for a signer that publishes values other than the ones
	// its walk produced. The replacement keeps the ring's length.
	testHookChecked func(sig *Signature, ring []Point, msg []byte) (*Signature, []Point, []byte)
	// testHookLink overrides the verdict of link i.
	testHookLink func(i int, holds bool) bool
)

// SignVerifiedCtx signs msg over ring like SignCtx and verifies the
// signature like Engine.Verify, with the verification overlapped with the
// signing. For the same rng stream the signature is byte-identical to
// SignCtx's. Signing errors come back as they are; a signature that does
// not verify comes back as a *SelfCheckError around Engine.Verify's error.
// A verified transcript is recorded in e.Seen, as Verify records it.
//
// The trace in ctx gets a "sign" span that ends when the signature is
// complete and a "verify-sig" span for the rest of the check, annotated
// with how many links were checked while signing, and with fallback=verify
// when a check failed and Engine.Verify gave the verdict.
func (e *Engine) SignVerifiedCtx(ctx context.Context, rng io.Reader, sk *PrivateKey, ring []Point, signerIdx int, msg []byte) (*Signature, error) {
	ck := &selfCheck{hp: e.Hp, ring: ring, msg: msg}
	if _, err := e.signCtx(ctx, rng, sk, ring, signerIdx, msg, ck); err != nil {
		return nil, err
	}
	_, sp := trace.StartSpan(ctx, "verify-sig")
	defer sp.End()
	sp.AnnotateInt("ring_size", int64(len(ring)))
	sp.AnnotateInt("links_while_signing", ck.checked.Load())
	if ck.finish() {
		if e.Seen != nil {
			e.Seen.Record(transcriptKey(ck.sig, ck.ring, ck.msg))
		}
		return ck.sig, nil
	}
	sp.Annotate("fallback", "verify")
	if err := e.Verify(ck.sig, ck.ring, ck.msg); err != nil {
		sp.Annotate("outcome", "invalid")
		return nil, &SelfCheckError{Err: err}
	}
	return ck.sig, nil
}

// selfCheck checks the links of a signature while sign produces them.
type selfCheck struct {
	hp   *HpCache
	ring []Point
	msg  []byte
	sig  *Signature // the signature checked; sign fills S[π] and C0 when the ring closes
	c    []*big.Int // c[i]: the walk's challenge into link i
	from int        // the link at walk position 0
	// shape is checkShape's verdict on the signature; the checker runs
	// only when it is nil.
	shape error

	next    atomic.Int64  // the first unclaimed walk position
	checked atomic.Int64  // links checked so far
	failed  atomic.Bool   // some link did not hold
	ready   chan struct{} // one token per walk position whose link can be checked
	exited  chan struct{} // closed when the checker returns
}

// start begins checking sig over the walk's challenges c. sign calls it
// once the decoy responses, the key image and c[from] exist, and then sends
// one ready token per link the walk completes. The checker starts only on
// a signature that passes checkShape.
func (ck *selfCheck) start(sig *Signature, c []*big.Int, from int) {
	ck.sig, ck.c, ck.from = sig, c, from
	ck.ready = make(chan struct{}, len(c))
	if testHookChecked != nil {
		ck.sig, ck.ring, ck.msg = testHookChecked(sig, ck.ring, ck.msg)
	}
	if ck.shape = checkShape(ck.sig, ck.ring); ck.shape != nil {
		return
	}
	ck.exited = make(chan struct{})
	go ck.run()
}

// run is the checker: it claims walk positions until the cursor passes the
// end, waiting for a position's token only when it has caught up.
func (ck *selfCheck) run() {
	defer close(ck.exited)
	ready := 0
	for k := ck.claim(); k < len(ck.c); k = ck.claim() {
		for ; ready <= k; ready++ {
			<-ck.ready
		}
		ck.check(k)
	}
}

// claim returns the first unclaimed walk position and moves the cursor past it.
func (ck *selfCheck) claim() int { return int(ck.next.Add(1)) - 1 }

// check recomputes the link at walk position k from the signature's public
// values and compares it with the walk's next challenge.
func (ck *selfCheck) check(k int) {
	n := len(ck.c)
	i := (ck.from + k) % n
	s, pub := ck.sig.S[i], ck.ring[i]
	t := mulPoint(s, ck.hp.hashPoint(pub))
	holds := link(ck.msg, pub, ck.sig.Image, s, ck.c[i], t).Cmp(ck.c[(i+1)%n]) == 0
	if testHookLink != nil {
		holds = testHookLink(i, holds)
	}
	if !holds {
		ck.failed.Store(true)
	}
	ck.checked.Add(1)
}

// finish hands the checker the last link, checks links alongside it until
// none is left and waits for it to exit. It reports whether the signature
// passed checkShape, every link held and the walk's chain starts at the
// signature's C0: whether Engine.Verify would accept it.
func (ck *selfCheck) finish() bool {
	if ck.shape != nil {
		return false
	}
	ck.ready <- struct{}{}
	for k := ck.claim(); k < len(ck.c); k = ck.claim() {
		ck.check(k)
	}
	<-ck.exited
	return !ck.failed.Load() && ck.sig.C0.Cmp(ck.c[0]) == 0
}
