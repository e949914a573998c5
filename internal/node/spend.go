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
	"tokenmagic/internal/selector"
	itm "tokenmagic/internal/tokenmagic"
)

// ErrNoSpendKeys reports a Spend on a node configured without Config.Keys.
var ErrNoSpendKeys = errors.New("node: spend requires Config.Keys")

// SpendResult describes one completed server-side spend.
type SpendResult struct {
	Ring   chain.TokenSet
	RSID   chain.RSID
	Signed bool
	// Signature is the spend's ring signature; nil on a node without keys.
	Signature *ringsig.Signature
}

// spendReason buckets a Spend error for the node.spend.reject.* counters.
func spendReason(err error) string {
	switch {
	case errors.Is(err, ErrBadSignature):
		return "bad_signature"
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
// parallel and only serialise for the double-spend check and commit. The
// check and the commit happen under one hold, so two racing spends of the
// same token cannot both land. A signed spend is checked by key image; a
// node without keys (AllowUnsigned) signs nothing and refuses a second
// spend of the same target instead.
func (n *Node) Spend(ctx context.Context, target chain.TokenID, req diversity.Requirement) (SpendResult, error) {
	res, _, err := n.spend(ctx, target, req, nil)
	return res, err
}

// SpendRelaxed is Spend with the paper's Section-4 fallback: when no ring
// satisfies req, selection walks policy's relaxation ladder
// (Framework.GenerateRSRelaxed) and the ring is committed under the
// requirement it achieved. That requirement is returned, and on error it is
// the last one tried.
func (n *Node) SpendRelaxed(ctx context.Context, target chain.TokenID, req diversity.Requirement, policy itm.RelaxationPolicy) (SpendResult, diversity.Requirement, error) {
	return n.spend(ctx, target, req, &policy)
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
// also annotates the trace with attempts=<n>. The outcome is counted in
// node.spend.accepted or node.spend.reject.<reason>.
func (n *Node) spend(ctx context.Context, target chain.TokenID, req diversity.Requirement, policy *itm.RelaxationPolicy) (res SpendResult, achieved diversity.Requirement, err error) {
	defer func() {
		if err != nil {
			n.metrics.Counter("node.spend.reject." + spendReason(err)).Inc()
		} else {
			n.metrics.Counter("node.spend.accepted").Inc()
		}
	}()
	if n.verifySigs && n.keys == nil {
		return SpendResult{}, req, ErrNoSpendKeys
	}
	for attempt := 1; ; attempt++ {
		epoch := n.fw.Epoch()
		res, achieved, err = n.spendOnce(ctx, target, req, policy)
		if err == nil || attempt > maxStaleRetries || !staleRetryable(err) || n.fw.Epoch() == epoch {
			if attempt > 1 {
				trace.FromContext(ctx).AnnotateInt("attempts", int64(attempt))
			}
			return res, achieved, err
		}
		n.metrics.Counter("node.spend.retry.stale_epoch").Inc()
	}
}

// spendOnce is the node's one select → sign → double-spend check → commit
// pass. Selection is strict when policy is nil and walks policy's ladder
// otherwise; the ring is committed under the requirement selection
// achieved, which is returned alongside the result.
func (n *Node) spendOnce(ctx context.Context, target chain.TokenID, req diversity.Requirement, policy *itm.RelaxationPolicy) (SpendResult, diversity.Requirement, error) {
	var sel selector.Result
	var err error
	if policy == nil {
		sel, err = n.fw.GenerateRSContext(ctx, target, req)
	} else {
		sel, req, err = n.fw.GenerateRSRelaxed(ctx, target, req, *policy)
	}
	if err != nil {
		return SpendResult{}, req, err
	}

	var sig *ringsig.Signature
	if n.keys != nil {
		sk := n.keys[target]
		if sk == nil {
			return SpendResult{}, req, fmt.Errorf("%w: no key for token %v", ErrNoSpendKeys, target)
		}
		ring := make([]ringsig.Point, len(sel.Tokens))
		signerIdx := -1
		for i, tok := range sel.Tokens {
			k := n.keys[tok]
			if k == nil {
				return SpendResult{}, req, fmt.Errorf("%w: no key for ring member %v", ErrNoSpendKeys, tok)
			}
			ring[i] = k.Public
			if tok == target {
				signerIdx = i
			}
		}
		sig, err = n.engine.SignVerifiedCtx(ctx, crand.Reader, sk, ring, signerIdx, Message(sel.Tokens))
		var bad *ringsig.SelfCheckError
		if errors.As(err, &bad) {
			return SpendResult{}, req, fmt.Errorf("%w: %w", ErrBadSignature, bad.Err)
		}
		if err != nil {
			return SpendResult{}, req, err
		}
	}

	if n.testHookAfterSelect != nil {
		n.testHookAfterSelect()
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	if sig != nil {
		if err := n.checkImage(sig); err != nil {
			return SpendResult{}, req, err
		}
	} else if prior, used := n.unsignedSpent[target]; used {
		return SpendResult{}, req, fmt.Errorf("%w (unsigned spend of %v, by %v)", ErrKeyImageUsed, target, prior)
	}
	id, err := n.fw.CommitCtx(ctx, sel.Tokens, req)
	if err != nil {
		return SpendResult{}, req, err
	}
	if sig != nil {
		n.images[string(sig.Image.Bytes())] = id
	} else {
		n.unsignedSpent[target] = id
	}
	return SpendResult{Ring: sel.Tokens, RSID: id, Signed: sig != nil, Signature: sig}, req, nil
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
