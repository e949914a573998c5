package node

import (
	"context"
	crand "crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"

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
// the Step-3 checks. Every stage lands in the trace carried by ctx
// (batch-wait, sample, sign, verify-sig, verify, commit), so this is the
// end-to-end path the load generator drives.
//
// Every Step-3 check is a check against the rings of the ring's batch, so
// the spends of one batch are ordered: a spend holds its batch's lock from
// before selection until after commit, and Mine waits for it. No spend or
// mine of this node can then invalidate a ring between its selection and
// its commit, and spends of different batches still select and sign in
// parallel. A writer that bypasses the node (a direct Framework.Commit or
// Ledger.AppendRS) is outside this order: a ring it invalidates comes back
// as the Step-3 error it is.
//
// The double-spend check and the commit happen under one hold of the node
// mutex, so two racing spends of the same token cannot both land. A signed
// spend is checked by key image; a node without keys (AllowUnsigned) signs
// nothing and refuses a second spend of the same target instead.
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

// spend runs spendOnce under the target's batch lock. The outcome is counted
// in node.spend.accepted, node.spend.fault.io (a journal failure: the
// server's fault, not the spend's) or node.spend.reject.<reason>.
func (n *Node) spend(ctx context.Context, target chain.TokenID, req diversity.Requirement, policy *itm.RelaxationPolicy) (res SpendResult, achieved diversity.Requirement, err error) {
	defer func() {
		switch {
		case err == nil:
			n.metrics.Counter("node.spend.accepted").Inc()
		case errors.Is(err, chain.ErrJournal):
			n.metrics.Counter("node.spend.fault.io").Inc()
		default:
			n.metrics.Counter("node.spend.reject." + spendReason(err)).Inc()
		}
	}()
	if n.verifySigs && n.keys == nil {
		return SpendResult{}, req, ErrNoSpendKeys
	}
	_, batches, err := n.fw.Snapshot()
	if err != nil {
		return SpendResult{}, req, err
	}
	b, err := batches.BatchOf(target)
	if err != nil {
		return SpendResult{}, req, err
	}
	defer n.lockBatch(ctx, b.Index)()
	return n.spendOnce(ctx, target, req, policy)
}

// lockBatch takes a spend's side of the node's lock order for batch idx —
// order shared, then the batch's mutex — in a "batch-wait" span, and
// returns the matching unlock.
func (n *Node) lockBatch(ctx context.Context, idx int) (unlock func()) {
	_, sp := trace.StartSpan(ctx, "batch-wait")
	defer sp.End()
	n.mu.Lock()
	m := n.batchMu[idx]
	if m == nil {
		m = new(sync.Mutex)
		n.batchMu[idx] = m
	}
	n.mu.Unlock()
	n.order.RLock()
	m.Lock()
	return func() {
		m.Unlock()
		n.order.RUnlock()
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
