package node

import (
	"context"
	crand "crypto/rand"
	"errors"
	"fmt"
	"io"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs/trace"
	"tokenmagic/internal/ringsig"
	itm "tokenmagic/internal/tokenmagic"
)

// ErrNoSpendKeys reports a Spend on a node configured without Config.Keys.
var ErrNoSpendKeys = errors.New("node: spend requires Config.Keys")

// SpendResult describes one completed server-side spend.
type SpendResult struct {
	Ring   chain.TokenSet
	RSID   chain.RSID
	Signed bool
}

// spendReason buckets a Spend error for the node.spend.reject.* counters.
func spendReason(err error) string {
	switch {
	case errors.Is(err, ErrKeyImageUsed):
		return "double_spend"
	case errors.Is(err, itm.ErrSpentBatch):
		return "no_candidate"
	case errors.Is(err, itm.ErrLiveness):
		return "liveness"
	case errors.Is(err, itm.ErrConfig):
		return "config"
	case errors.Is(err, itm.ErrDiversity):
		return "diversity"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "cancelled"
	default:
		return "other"
	}
}

// Spend runs the paper's full client+miner pipeline inside the node: select a
// ring for target (Algorithm 1), sign it with the target's key while
// verifying the signature (ringsig.Engine.SignVerifiedCtx), and commit under
// the Step-3 checks. Every stage lands in the trace carried by ctx (sample,
// sign, verify-sig, verify, commit), so this is the end-to-end path the load
// generator drives.
//
// Ring selection runs outside the node mutex — concurrent Spends solve in
// parallel and only serialise for the image check and commit. The key-image
// double-spend check and the commit happen under one hold, so two racing
// spends of the same token cannot both land.
func (n *Node) Spend(ctx context.Context, target chain.TokenID, req diversity.Requirement) (SpendResult, error) {
	res, err := n.spend(ctx, target, req)
	if err != nil {
		n.metrics.Counter("node.spend.reject." + spendReason(err)).Inc()
	} else {
		n.metrics.Counter("node.spend.accepted").Inc()
	}
	return res, err
}

// maxStaleRetries bounds the regenerate-and-retry loop below. Each retry
// re-selects against the then-current epoch, so one pass per concurrently
// landed commit suffices; eight absorbs heavy contention while keeping a
// genuinely unspendable token's failure latency bounded.
const maxStaleRetries = 8

// staleRetryable reports whether a commit failure may be an artefact of the
// chain moving between ring selection and commit — the Step-3 classes that
// depend on the ring population — rather than a verdict about the token
// itself. Double spends and signature failures are terminal.
func staleRetryable(err error) bool {
	return errors.Is(err, itm.ErrConfig) ||
		errors.Is(err, itm.ErrDiversity) ||
		errors.Is(err, itm.ErrLiveness)
}

// spend runs spendOnce and, when the commit lost a race — the framework
// epoch advanced past the one the ring was selected against and the failure
// is selection-dependent — re-selects against the new epoch and retries.
// Without this, concurrent spends of distinct tokens could surface spurious
// rejections (HTTP 422 through nodesvc) purely from commit ordering. Each
// attempt opens its own stages in the request's trace; a spend that retried
// also annotates the trace with attempts=<n>.
func (n *Node) spend(ctx context.Context, target chain.TokenID, req diversity.Requirement) (SpendResult, error) {
	if n.verifySigs && n.keys == nil {
		return SpendResult{}, ErrNoSpendKeys
	}
	for attempt := 1; ; attempt++ {
		epoch := n.fw.Epoch()
		res, err := n.spendOnce(ctx, target, req)
		if err == nil || attempt > maxStaleRetries || !staleRetryable(err) || n.fw.Epoch() == epoch {
			if attempt > 1 {
				trace.FromContext(ctx).AnnotateInt("attempts", int64(attempt))
			}
			return res, err
		}
		n.metrics.Counter("node.spend.retry.stale_epoch").Inc()
	}
}

func (n *Node) spendOnce(ctx context.Context, target chain.TokenID, req diversity.Requirement) (SpendResult, error) {
	sel, err := n.fw.GenerateRSContext(ctx, target, req)
	if err != nil {
		return SpendResult{}, err
	}
	msg := Message(sel.Tokens)

	var sig *ringsig.Signature
	if n.keys != nil {
		sk := n.keys[target]
		if sk == nil {
			return SpendResult{}, fmt.Errorf("%w: no key for token %v", ErrNoSpendKeys, target)
		}
		ring := make([]ringsig.Point, len(sel.Tokens))
		signerIdx := -1
		for i, tok := range sel.Tokens {
			k := n.keys[tok]
			if k == nil {
				return SpendResult{}, fmt.Errorf("%w: no key for ring member %v", ErrNoSpendKeys, tok)
			}
			ring[i] = k.Public
			if tok == target {
				signerIdx = i
			}
		}
		sig, err = n.engine.SignVerifiedCtx(ctx, crand.Reader, sk, ring, signerIdx, msg)
		var bad *ringsig.SelfCheckError
		if errors.As(err, &bad) {
			return SpendResult{}, fmt.Errorf("%w: %w", ErrBadSignature, bad.Err)
		}
		if err != nil {
			return SpendResult{}, err
		}
	}

	if n.testHookAfterSelect != nil {
		n.testHookAfterSelect()
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	var img string
	if sig != nil {
		img = string(sig.Image.Bytes())
		if prior, used := n.images[img]; used {
			return SpendResult{}, fmt.Errorf("%w (by %v)", ErrKeyImageUsed, prior)
		}
	}
	id, err := n.fw.CommitCtx(ctx, sel.Tokens, req)
	if err != nil {
		return SpendResult{}, err
	}
	if sig != nil {
		n.images[img] = id
	}
	return SpendResult{Ring: sel.Tokens, RSID: id, Signed: sig != nil}, nil
}

// GenerateKeys creates one keypair per ledger token from rng (nil uses
// crypto/rand), suitable for Config.Keys on experiment and load-test nodes.
// Token i gets the i-th key of ringsig.GenerateKeys, so a seeded rng fixes
// every key.
func GenerateKeys(rng io.Reader, ledger *chain.Ledger) (map[chain.TokenID]*ringsig.PrivateKey, error) {
	if rng == nil {
		rng = crand.Reader
	}
	sks, err := ringsig.GenerateKeys(rng, ledger.NumTokens())
	if err != nil {
		return nil, err
	}
	keys := make(map[chain.TokenID]*ringsig.PrivateKey, len(sks))
	for i, sk := range sks {
		keys[chain.TokenID(i)] = sk
	}
	return keys, nil
}
