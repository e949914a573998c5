package ringsig

import (
	"context"
	"io"

	"tokenmagic/internal/obs/trace"
)

// Context-aware wrappers: the crypto itself neither blocks nor cancels, so
// ctx only carries the request's trace — signing and verification land in
// "sign"/"verify-sig" spans with the ring size, making the crypto share of
// a spend's latency visible next to the solver stages. SignVerifiedCtx
// (selfcheck.go) records the same two spans, split where its signature is
// complete.

// SignCtx is Sign recorded as a "sign" span of the trace in ctx.
func SignCtx(ctx context.Context, rng io.Reader, sk *PrivateKey, ring []Point, signerIdx int, msg []byte) (*Signature, error) {
	return defaultEngine.SignCtx(ctx, rng, sk, ring, signerIdx, msg)
}

// SignCtx is Sign, with hash-to-point resolved through e.Hp, recorded as a
// "sign" span of the trace in ctx.
func (e *Engine) SignCtx(ctx context.Context, rng io.Reader, sk *PrivateKey, ring []Point, signerIdx int, msg []byte) (*Signature, error) {
	return e.signCtx(ctx, rng, sk, ring, signerIdx, msg, nil)
}

// signCtx is sign recorded as a "sign" span of the trace in ctx.
func (e *Engine) signCtx(ctx context.Context, rng io.Reader, sk *PrivateKey, ring []Point, signerIdx int, msg []byte, ck *selfCheck) (*Signature, error) {
	_, sp := trace.StartSpan(ctx, "sign")
	defer sp.End()
	sp.AnnotateInt("ring_size", int64(len(ring)))
	sig, err := e.sign(rng, sk, ring, signerIdx, msg, ck)
	if err != nil {
		sp.Annotate("outcome", "error")
	}
	return sig, err
}

// VerifyCtx is Verify recorded as a "verify-sig" span of the trace in ctx.
// The span name is distinct from the framework's Step-3 "verify" stage so
// the two checks stay separable in the per-stage aggregates.
func VerifyCtx(ctx context.Context, sig *Signature, ring []Point, msg []byte) error {
	return defaultEngine.VerifyCtx(ctx, sig, ring, msg)
}

// VerifyCtx is Engine.Verify recorded as a "verify-sig" span of the trace
// in ctx.
func (e *Engine) VerifyCtx(ctx context.Context, sig *Signature, ring []Point, msg []byte) error {
	_, sp := trace.StartSpan(ctx, "verify-sig")
	defer sp.End()
	sp.AnnotateInt("ring_size", int64(len(ring)))
	err := e.Verify(sig, ring, msg)
	if err != nil {
		sp.Annotate("outcome", "invalid")
	}
	return err
}

// VerifyBatchCtx is VerifyBatch recorded as a "verify-batch" span carrying
// the batch size and how much of it the caches settled.
func (e *Engine) VerifyBatchCtx(ctx context.Context, reqs []VerifyRequest) BatchResult {
	_, sp := trace.StartSpan(ctx, "verify-batch")
	defer sp.End()
	sp.AnnotateInt("batch_size", int64(len(reqs)))
	res := e.VerifyBatch(ctx, reqs)
	sp.AnnotateInt("cache_hits", int64(res.CacheHits))
	if !res.OK() {
		sp.Annotate("outcome", "invalid")
	}
	return res
}
