// Package node implements the miner side of the paper's RS scheme
// (Section 2.1, Step 3): a validating node that accepts signed ring-spend
// submissions, checks them exactly as the paper's verifiers do —
//
//  1. the ring signature verifies against the ring members' keys,
//  2. the key image is fresh (no double spend),
//  3. the ring respects the TokenMagic configurations (one batch,
//     superset-or-disjoint, declared diversity with headroom, closed-form
//     DTRS diversity, η liveness) —
//
// holds valid submissions in a mempool, and periodically "mines" them: the
// accepted rings are appended to the ledger in fee order, exactly like a
// fee-market block template. A submitted spend was selected and signed
// (Steps 1–2) by its client; a node that holds the tokens' keys
// (Config.Keys) can also run all three steps itself through Spend, the
// path load generation and the System facade drive.
package node

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/ringsig"
	itm "tokenmagic/internal/tokenmagic"
)

// Submission is a client's signed spend: the ring (token set), the declared
// diversity requirement, the ring members' public keys in token order, and
// the signature. Fee is the offered fee (the examples use ring size ×
// fee-per-token, the paper's model).
type Submission struct {
	Tokens    chain.TokenSet
	Req       diversity.Requirement
	Keys      []ringsig.Point
	Signature *ringsig.Signature
	Fee       uint64
}

// Message returns the canonical signing payload for a ring. Clients must
// sign exactly this; verifiers recompute it.
func Message(tokens chain.TokenSet) []byte {
	return []byte(fmt.Sprintf("spend ring over %v", tokens))
}

// Status classifies a mempool entry.
type Status int

// Mempool entry states.
const (
	StatusPending Status = iota
	StatusMined
)

// Node is a validating miner. Safe for concurrent use.
//
// Lock order: order, then a batch mutex, then mu. A spend holds order shared
// and its batch's mutex from before selection until after commit; MineCtx
// holds order exclusively. So no spend or mine of this node commits into a
// batch between another spend's selection and that spend's commit.
type Node struct {
	order sync.RWMutex
	mu    sync.Mutex
	// batchMu holds one mutex per batch, keyed by chain.Batch.Index (stable,
	// since blocks are only appended). Guarded by mu.
	batchMu map[int]*sync.Mutex
	ledger  *chain.Ledger
	fw      *itm.Framework
	images  map[string]chain.RSID
	// unsignedSpent maps each target a keyless Spend consumed to its ring:
	// the double-spend check for spends that carry no key image.
	unsignedSpent map[chain.TokenID]chain.RSID
	mempool       []pendingEntry
	// VerifySignatures can be disabled for pure selection experiments.
	verifySigs bool
	keys       map[chain.TokenID]*ringsig.PrivateKey
	// engine amortises signature work across the node's lifetime: its
	// hash-to-point memo resolves each ring member's key once, on first
	// use, and its transcript cache lets block validation skip chains the
	// admission check already walked.
	engine  *ringsig.Engine
	metrics *obs.Registry
	// testHookAfterSelect, when non-nil, runs between ring selection and
	// commit in spendOnce — a test seam for deterministically interleaving a
	// sibling spend or mine into the selection/commit window.
	testHookAfterSelect func()
}

type pendingEntry struct {
	sub Submission
	id  int // submission id for receipts
}

// Receipt identifies an accepted submission.
type Receipt struct {
	SubmissionID int
}

// Errors surfaced by submission validation.
var (
	ErrBadSignature   = errors.New("node: ring signature invalid")
	ErrKeyImageUsed   = errors.New("node: key image already spent")
	ErrKeysMismatch   = errors.New("node: one public key required per ring token")
	ErrUnsignedDenied = errors.New("node: unsigned submissions not accepted")
)

// Config configures a node.
type Config struct {
	// Framework carries the TokenMagic Step-3 checks (λ, η, headroom).
	Framework itm.Config
	// AllowUnsigned admits submissions without signatures (selection-only
	// experiments); key-image double-spend checking is skipped for them.
	AllowUnsigned bool
	// Keys, when set, holds the private key of each spendable token and
	// enables the server-side Spend path: the node selects the ring, signs
	// with the target's key and commits in one call. Production nodes never
	// hold client keys — this exists for load generation and experiments,
	// where it exercises the full sample→solve→sign→verify→commit pipeline
	// in-process.
	Keys map[chain.TokenID]*ringsig.PrivateKey
	// Rand drives the framework's candidate sampling (tokenmagic.New's
	// rng); nil selects a crypto-seeded generator. A fixed-seed source
	// makes the node's rings replay per seed.
	Rand *rand.Rand
}

// New creates a node over a ledger.
func New(ledger *chain.Ledger, cfg Config) (*Node, error) {
	fw, err := itm.New(ledger, cfg.Framework, cfg.Rand)
	if err != nil {
		return nil, err
	}
	reg := cfg.Framework.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	// The memo starts empty, with or without Keys: a key is hashed to a
	// point the first time it appears in a ring, which is the only time a
	// spend needs it, and most minted keys never do.
	engine := &ringsig.Engine{Hp: ringsig.NewHpCache(), Seen: ringsig.NewSigCache(sigCacheEntries)}
	return &Node{
		batchMu:       make(map[int]*sync.Mutex),
		ledger:        ledger,
		fw:            fw,
		images:        make(map[string]chain.RSID),
		unsignedSpent: make(map[chain.TokenID]chain.RSID),
		verifySigs:    !cfg.AllowUnsigned,
		keys:          cfg.Keys,
		engine:        engine,
		metrics:       reg,
	}, nil
}

// sigCacheEntries bounds the node's verified-transcript cache. A mempool
// re-validated at mine time needs at most one entry per pending submission;
// 4096 covers two full generations of the largest block templates the
// simulations mine while keeping worst-case memory at a few hundred KiB.
const sigCacheEntries = 4096

// rejectReason buckets a Submit error for the node.submit.reject.* counters.
func rejectReason(err error) string {
	switch {
	case errors.Is(err, ErrBadSignature):
		return "bad_signature"
	case errors.Is(err, ErrKeyImageUsed):
		return "double_spend"
	case errors.Is(err, ErrKeysMismatch), errors.Is(err, ErrUnsignedDenied):
		return "malformed"
	case errors.Is(err, itm.ErrLiveness):
		return "liveness"
	case errors.Is(err, itm.ErrConfig):
		return "config"
	case errors.Is(err, itm.ErrDiversity):
		return "diversity"
	default:
		return "other"
	}
}

// Submit validates a spend and, if acceptable, queues it for mining.
func (n *Node) Submit(sub Submission) (Receipt, error) {
	return n.SubmitCtx(context.Background(), sub)
}

// SubmitCtx is Submit with the request's trace threaded through: signature
// verification lands in a "verify-sig" span and the Step-3 check in a
// "verify" span. ctx carries only the trace; validation itself never blocks.
func (n *Node) SubmitCtx(ctx context.Context, sub Submission) (Receipt, error) {
	rcpt, err := n.submit(ctx, sub)
	if err != nil {
		n.metrics.Counter("node.submit.reject." + rejectReason(err)).Inc()
	} else {
		n.metrics.Counter("node.submit.accepted").Inc()
	}
	return rcpt, err
}

func (n *Node) submit(ctx context.Context, sub Submission) (Receipt, error) {
	n.mu.Lock()
	defer n.mu.Unlock()

	if n.verifySigs {
		if sub.Signature == nil {
			return Receipt{}, ErrUnsignedDenied
		}
		if len(sub.Keys) != len(sub.Tokens) {
			return Receipt{}, ErrKeysMismatch
		}
		if err := n.engine.VerifyCtx(ctx, sub.Signature, sub.Keys, Message(sub.Tokens)); err != nil {
			return Receipt{}, fmt.Errorf("%w: %w", ErrBadSignature, err)
		}
		if err := n.checkImage(sub.Signature); err != nil {
			return Receipt{}, err
		}
	}
	// TokenMagic Step-3 checks against the current chain + mempool rings.
	if err := n.fw.VerifyRSCtx(ctx, sub.Tokens, sub.Req); err != nil {
		return Receipt{}, err
	}
	// Mempool conflicts: the practical configuration must also hold among
	// pending rings, or mining order could invalidate later entries.
	for _, e := range n.mempool {
		if !sub.Tokens.Disjoint(e.sub.Tokens) &&
			!e.sub.Tokens.SubsetOf(sub.Tokens) && !sub.Tokens.SubsetOf(e.sub.Tokens) {
			return Receipt{}, fmt.Errorf("%w: conflicts with pending ring", itm.ErrConfig)
		}
	}
	id := len(n.mempool)
	n.mempool = append(n.mempool, pendingEntry{sub: sub, id: id})
	n.metrics.Gauge("node.mempool.pending").Set(int64(len(n.mempool)))
	return Receipt{SubmissionID: id}, nil
}

// checkImage is the node's one key-image check: it refuses a signature whose
// key image is already on the chain or in a pending mempool entry. Submit
// and Spend both call it under n.mu, so neither can land a token the other
// has already spent or queued.
func (n *Node) checkImage(sig *ringsig.Signature) error {
	if prior, used := n.images[string(sig.Image.Bytes())]; used {
		return fmt.Errorf("%w (by %v)", ErrKeyImageUsed, prior)
	}
	for _, e := range n.mempool {
		if ringsig.Linked(e.sub.Signature, sig) {
			return fmt.Errorf("%w (pending)", ErrKeyImageUsed)
		}
	}
	return nil
}

// PendingCount returns the mempool depth.
func (n *Node) PendingCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.mempool)
}

// MinedRing pairs a submission with the ring it became.
type MinedRing struct {
	SubmissionID int
	Ring         chain.RSID
	Fee          uint64
}

// Mine drains up to maxRings mempool entries into the ledger, highest fee
// first (fee-per-byte ≈ fee here since verification cost scales with ring
// size, which the fee already prices). Subset relations are mined before
// their supersets so the configuration stays valid at every prefix.
func (n *Node) Mine(maxRings int) ([]MinedRing, error) {
	return n.MineCtx(context.Background(), maxRings)
}

// MineCtx is Mine with the request's trace threaded through; each committed
// ring lands in a "commit" span. It waits for every spend in flight to
// commit, and no spend selects while it runs.
//
// Before anything is committed, the block template's signatures are
// re-validated through VerifyBatchCtx — the paper's Step-4 "every block
// validation re-verifies many" workload. Entries admitted through Submit
// hit the engine's transcript cache and cost a hash each; a signature that
// fails (possible only if the mempool was corrupted, since admission
// already verified it) is dropped rather than mined.
//
// A commit that cannot be journaled (chain.ErrJournal) stops the block:
// MineCtx returns the rings mined so far with that error, keeps the entry
// and every entry not yet tried pending, and counts node.mine.fault.io.
func (n *Node) MineCtx(ctx context.Context, maxRings int) ([]MinedRing, error) {
	n.order.Lock()
	defer n.order.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	if maxRings <= 0 || len(n.mempool) == 0 {
		return nil, nil
	}
	// Order: subsets first, then fee descending.
	entries := append([]pendingEntry{}, n.mempool...)
	sort.SliceStable(entries, func(a, b int) bool {
		ta, tb := entries[a].sub.Tokens, entries[b].sub.Tokens
		if ta.SubsetOf(tb) && !tb.SubsetOf(ta) {
			return true
		}
		if tb.SubsetOf(ta) && !ta.SubsetOf(tb) {
			return false
		}
		return entries[a].sub.Fee > entries[b].sub.Fee
	})

	// Block validation: batch re-verify the entries' signatures up front.
	var verdicts []error
	if n.verifySigs {
		subs := make([]Submission, len(entries))
		for i, e := range entries {
			subs[i] = e.sub
		}
		verdicts = n.VerifyBatchCtx(ctx, subs).Errs
	}

	var mined []MinedRing
	var leftover []pendingEntry
	var fault error
	dropped, invalidSig := 0, 0
	for i, e := range entries {
		if verdicts != nil && verdicts[i] != nil {
			invalidSig++
			continue
		}
		if fault != nil || len(mined) >= maxRings {
			leftover = append(leftover, e)
			continue
		}
		id, err := n.fw.CommitCtx(ctx, e.sub.Tokens, e.sub.Req)
		if errors.Is(err, chain.ErrJournal) {
			// The node could not write the chain: not a verdict on the
			// entry, so it stays pending with every entry not yet tried.
			fault = err
			leftover = append(leftover, e)
			continue
		}
		if err != nil {
			// The chain moved under this entry (e.g. a mined superset made
			// it overlap-invalid): drop it; the client resubmits.
			dropped++
			continue
		}
		if e.sub.Signature != nil {
			n.images[string(e.sub.Signature.Image.Bytes())] = id
		}
		mined = append(mined, MinedRing{SubmissionID: e.id, Ring: id, Fee: e.sub.Fee})
	}
	n.mempool = leftover
	n.metrics.Counter("node.mine.blocks").Inc()
	n.metrics.Counter("node.mine.rings").Add(int64(len(mined)))
	n.metrics.Counter("node.mine.dropped").Add(int64(dropped))
	n.metrics.Counter("node.mine.invalid_sig").Add(int64(invalidSig))
	n.metrics.Gauge("node.mempool.pending").Set(int64(len(n.mempool)))
	if fault != nil {
		n.metrics.Counter("node.mine.fault.io").Inc()
	}
	return mined, fault
}

// VerifyBatchCtx checks the ring signatures of a batch of submissions
// without admitting them — the verification half of block validation,
// exposed for peers auditing a block template (nodesvc's /v1/verify).
// Each entry gets the verdict Submit's signature check gives it: malformed
// entries (missing signature, key/token count mismatch) fail with the same
// errors, and well-formed ones take the engine's verdict, from the same
// call MineCtx's block validation makes, wrapped in ErrBadSignature.
func (n *Node) VerifyBatchCtx(ctx context.Context, subs []Submission) ringsig.BatchResult {
	out := ringsig.BatchResult{Errs: make([]error, len(subs)), FirstFailure: -1}
	reqs := make([]ringsig.VerifyRequest, 0, len(subs))
	idxs := make([]int, 0, len(subs))
	for i, sub := range subs {
		switch {
		case sub.Signature == nil:
			out.Errs[i] = ErrUnsignedDenied
		case len(sub.Keys) != len(sub.Tokens):
			out.Errs[i] = ErrKeysMismatch
		default:
			reqs = append(reqs, ringsig.VerifyRequest{
				Sig:  sub.Signature,
				Ring: sub.Keys,
				Msg:  Message(sub.Tokens),
			})
			idxs = append(idxs, i)
		}
	}
	res := n.engine.VerifyBatchCtx(ctx, reqs)
	for k, err := range res.Errs {
		if err != nil {
			out.Errs[idxs[k]] = fmt.Errorf("%w: %w", ErrBadSignature, err)
		}
	}
	out.CacheHits = res.CacheHits
	for i, err := range out.Errs {
		if err != nil {
			out.FirstFailure = i
			break
		}
	}
	return out
}

// Framework returns the node's TokenMagic framework, whose published epoch
// is the node's one derived chain state (batchsvc serves it).
func (n *Node) Framework() *itm.Framework { return n.fw }

// ChainRings returns the number of rings on the ledger.
func (n *Node) ChainRings() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ledger.NumRS()
}
