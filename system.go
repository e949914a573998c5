package tokenmagic

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"

	"tokenmagic/internal/adversary"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/node"
	"tokenmagic/internal/ringsig"
	"tokenmagic/internal/selector"
	itm "tokenmagic/internal/tokenmagic"
)

var errNoEligible = selector.ErrNoEligible

// Options configures a System.
type Options struct {
	// Lambda is the TokenMagic batch size (tokens per batch).
	// Default 800 (≈ one hour of Monero traffic).
	Lambda int
	// Eta is the liveness guard parameter in [0, 1]; 0 disables the guard.
	// Default 0.1.
	Eta float64
	// Algorithm picks the mixin-selection strategy. Default Progressive.
	Algorithm Algorithm
	// DisableHeadroom turns off the second practical configuration
	// (solving for ℓ+1). Leave false unless reproducing ablation A3.
	DisableHeadroom bool
	// Randomize enables Algorithm 1's candidate sampling: one candidate
	// ring per batch token, chosen uniformly among those containing the
	// consuming token. Slower but hides the selection algorithm itself.
	Randomize bool
	// Seed drives all framework randomness; 0 means 1 (deterministic
	// default rather than time-based, so runs are reproducible).
	Seed int64
	// FeePerToken models the transaction fee proportionality the paper
	// motivates TM_G with. Default 1.
	FeePerToken uint64
	// DisableSigning skips real ring-signature generation on Spend; use
	// for pure selection experiments where crypto time is noise.
	DisableSigning bool
}

func (o Options) withDefaults() Options {
	if o.Lambda == 0 {
		o.Lambda = 800
	}
	if o.Eta == 0 {
		o.Eta = 0.1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.FeePerToken == 0 {
		o.FeePerToken = 1
	}
	return o
}

// System is a full simulated privacy-preserving blockchain: a UTXO ledger, a
// keypair per token, and — once sealed — a node.Node over the ledger that
// selects, signs, double-spend-checks and commits every spend. All methods
// are safe for concurrent use; spends serialise on an internal mutex,
// mirroring how a node admits one ring to its mempool at a time.
type System struct {
	mu     sync.Mutex
	opts   Options
	ledger *chain.Ledger
	keys   map[TokenID]*ringsig.PrivateKey
	// node runs every spend; Seal builds it, so nil means unsealed.
	node *node.Node
}

// NewSystem creates an empty system. Mint tokens with MintBlock, then Seal
// before spending.
func NewSystem(opts Options) *System {
	opts = opts.withDefaults()
	return &System{
		opts:   opts,
		ledger: chain.NewLedger(),
		keys:   make(map[TokenID]*ringsig.PrivateKey),
	}
}

// Errors specific to the system facade.
var (
	ErrSealed    = errors.New("tokenmagic: system already sealed")
	ErrNotSealed = errors.New("tokenmagic: seal the system before spending")
	// ErrDoubleSpend is the node's double-spend sentinel: a signed spend
	// whose key image was already used, or, with signing disabled, a
	// second spend of the same token.
	ErrDoubleSpend = node.ErrKeyImageUsed
)

// MintBlock appends one block containing one transaction per argument, each
// with that many output tokens, and returns the ids of all minted tokens in
// order. Every token gets a fresh keypair unless signing is disabled.
func (s *System) MintBlock(outputsPerTx ...int) ([]TokenID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.node != nil {
		return nil, ErrSealed
	}
	block := s.ledger.BeginBlock()
	var minted []TokenID
	for _, n := range outputsPerTx {
		if n < 1 {
			return nil, fmt.Errorf("tokenmagic: transaction needs ≥ 1 output, got %d", n)
		}
		tx, err := s.ledger.AddTx(block, n)
		if err != nil {
			return nil, err
		}
		rec, err := s.ledger.Tx(tx)
		if err != nil {
			return nil, err
		}
		minted = append(minted, rec.Outputs...)
	}
	if !s.opts.DisableSigning {
		keys, err := ringsig.GenerateKeys(rand.Reader, len(minted))
		if err != nil {
			return nil, err
		}
		for i, tok := range minted {
			s.keys[tok] = keys[i]
		}
	}
	return minted, nil
}

// Seal freezes minting and builds the TokenMagic batch structure, inside the
// node that runs every spend. Spend is only available after sealing.
func (s *System) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.node != nil {
		return ErrSealed
	}
	cfg := node.Config{
		Framework: itm.Config{
			Lambda:    s.opts.Lambda,
			Eta:       s.opts.Eta,
			Headroom:  !s.opts.DisableHeadroom,
			Algorithm: s.opts.Algorithm,
			Randomize: s.opts.Randomize,
		},
		AllowUnsigned: s.opts.DisableSigning,
		Rand:          mrand.New(mrand.NewSource(s.opts.Seed)),
	}
	// A non-nil key map makes the node sign, so an unsigned System passes
	// none.
	if !s.opts.DisableSigning {
		cfg.Keys = s.keys
	}
	nd, err := node.New(s.ledger, cfg)
	if err != nil {
		return err
	}
	s.node = nd
	return nil
}

// Receipt describes a completed spend.
type Receipt struct {
	Ring      RSID
	Tokens    TokenSet
	Fee       uint64 // FeePerToken × ring size, the paper's fee model
	Signature *ringsig.Signature
}

// Spend consumes a token: selects mixins under the requirement, signs the
// ring with the token's key, runs the miner-side verification (signature,
// double-spend, configuration, diversity, liveness) and commits the ring.
func (s *System) Spend(target TokenID, req Requirement) (*Receipt, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.node == nil {
		return nil, ErrNotSealed
	}
	res, err := s.node.Spend(context.Background(), target, req)
	if err != nil {
		return nil, err
	}
	return s.receipt(res), nil
}

// RelaxationPolicy re-exports the framework's Section-4 retry ladder.
type RelaxationPolicy = itm.RelaxationPolicy

// SpendRelaxed is Spend with the paper's Section-4 fallback: if no ring
// satisfies the requested requirement, the requirement is relaxed step by
// step (per policy) until one exists. The receipt's ring is committed under
// the achieved requirement, which is returned.
func (s *System) SpendRelaxed(target TokenID, req Requirement, policy RelaxationPolicy) (*Receipt, Requirement, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.node == nil {
		return nil, req, ErrNotSealed
	}
	res, achieved, err := s.node.SpendRelaxed(context.Background(), target, req, policy)
	if err != nil {
		return nil, achieved, err
	}
	return s.receipt(res), achieved, nil
}

func (s *System) receipt(res node.SpendResult) *Receipt {
	return &Receipt{
		Ring:      res.RSID,
		Tokens:    res.Ring,
		Fee:       uint64(len(res.Ring)) * s.opts.FeePerToken,
		Signature: res.Signature,
	}
}

// Ledger stats.

// NumTokens returns the number of minted tokens.
func (s *System) NumTokens() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledger.NumTokens()
}

// NumRings returns the number of committed ring signatures.
func (s *System) NumRings() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledger.NumRS()
}

// Ring returns the visible token set of a committed ring.
func (s *System) Ring(id RSID) (TokenSet, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	rec, err := s.ledger.RS(id)
	if err != nil {
		return nil, err
	}
	return rec.Tokens, nil
}

// AuditReport summarises what a chain-reaction adversary learns from the
// current ledger.
type AuditReport struct {
	Rings            int
	TracedRings      int     // rings whose consumed token is determined
	HTRevealedRings  int     // rings whose consumed token's HT is determined
	AvgAnonymitySet  float64 // mean plausible-token count per ring
	ProvablyConsumed int     // tokens proven consumed (Theorem 4.1 closure)
}

// Audit runs the exact chain-reaction analysis an adversary would run over
// the whole ledger and summarises the damage.
func (s *System) Audit() AuditReport {
	s.mu.Lock()
	defer s.mu.Unlock()

	a := adversary.ChainReaction(s.ledger.Rings(), nil, s.ledger.OriginFunc())
	m := adversary.Summarise(a)
	return AuditReport{
		Rings:            m.Rings,
		TracedRings:      m.Traced,
		HTRevealedRings:  m.HTRevealed,
		AvgAnonymitySet:  m.AvgAnonymity,
		ProvablyConsumed: m.ConsumedTokens,
	}
}

// AuditWithSideInfo is Audit with adversary side information: revealed
// (ring → consumed token) pairs.
func (s *System) AuditWithSideInfo(si map[RSID]TokenID) AuditReport {
	s.mu.Lock()
	defer s.mu.Unlock()

	a := adversary.ChainReaction(s.ledger.Rings(), adversary.SideInfo(si), s.ledger.OriginFunc())
	m := adversary.Summarise(a)
	return AuditReport{
		Rings:            m.Rings,
		TracedRings:      m.Traced,
		HTRevealedRings:  m.HTRevealed,
		AvgAnonymitySet:  m.AvgAnonymity,
		ProvablyConsumed: m.ConsumedTokens,
	}
}

// CommitRaw appends a caller-assembled ring without TokenMagic verification
// or signing. It exists so examples can demonstrate what goes wrong with
// naive selection; production code should always use Spend.
func (s *System) CommitRaw(tokens TokenSet, req Requirement) (RSID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.node == nil {
		return -1, ErrNotSealed
	}
	return s.ledger.AppendRS(tokens, req.C, req.L)
}
