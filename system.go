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
// keypair per token, the TokenMagic selection framework, and a key-image
// registry for double-spend rejection. All methods are safe for concurrent
// use; spends serialise on an internal mutex, mirroring how a node admits
// one ring to its mempool at a time.
type System struct {
	mu     sync.Mutex
	opts   Options
	ledger *chain.Ledger
	fw     *itm.Framework
	rng    *mrand.Rand

	keys   map[TokenID]*ringsig.PrivateKey
	pubs   map[TokenID]ringsig.Point
	images map[string]RSID // key-image encoding → spending ring
	// engine signs and self-verifies every spend. Seal gives it an Hp memo
	// holding every minted public key, unless signing is disabled.
	engine ringsig.Engine

	curBlock chain.BlockID
	sealed   bool
}

// NewSystem creates an empty system. Mint tokens with MintBlock, then Seal
// before spending.
func NewSystem(opts Options) *System {
	opts = opts.withDefaults()
	return &System{
		opts:   opts,
		ledger: chain.NewLedger(),
		rng:    mrand.New(mrand.NewSource(opts.Seed)),
		keys:   make(map[TokenID]*ringsig.PrivateKey),
		pubs:   make(map[TokenID]ringsig.Point),
		images: make(map[string]RSID),
	}
}

// Errors specific to the system facade.
var (
	ErrSealed      = errors.New("tokenmagic: system already sealed")
	ErrNotSealed   = errors.New("tokenmagic: seal the system before spending")
	ErrDoubleSpend = errors.New("tokenmagic: key image already used (double spend)")
	ErrNoKey       = errors.New("tokenmagic: no private key for token")
)

// MintBlock appends one block containing one transaction per argument, each
// with that many output tokens, and returns the ids of all minted tokens in
// order. Every token gets a fresh keypair unless signing is disabled.
func (s *System) MintBlock(outputsPerTx ...int) ([]TokenID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.sealed {
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
			s.pubs[tok] = keys[i].Public
		}
	}
	s.curBlock = block
	return minted, nil
}

// Seal freezes minting and builds the TokenMagic batch structure. Spend is
// only available after sealing.
func (s *System) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.sealed {
		return ErrSealed
	}
	cfg := itm.Config{
		Lambda:    s.opts.Lambda,
		Eta:       s.opts.Eta,
		Headroom:  !s.opts.DisableHeadroom,
		Algorithm: s.opts.Algorithm,
		Randomize: s.opts.Randomize,
	}
	fw, err := itm.New(s.ledger, cfg, s.rng)
	if err != nil {
		return err
	}
	if !s.opts.DisableSigning {
		pubs := make([]ringsig.Point, 0, len(s.pubs))
		for _, p := range s.pubs {
			pubs = append(pubs, p)
		}
		s.engine.Hp = ringsig.NewHpCache()
		s.engine.Hp.Precompute(pubs)
	}
	s.fw = fw
	s.sealed = true
	return nil
}

// Receipt describes a completed spend.
type Receipt struct {
	Ring      RSID
	Tokens    TokenSet
	Fee       uint64 // FeePerToken × ring size, the paper's fee model
	Signature *ringsig.Signature
	// ModuleCount and Iterations echo solver statistics for telemetry.
	ModuleCount int
	Iterations  int
}

// Spend consumes a token: selects mixins under the requirement, signs the
// ring with the token's key, runs the miner-side verification (signature,
// double-spend, configuration, diversity, liveness) and commits the ring.
func (s *System) Spend(target TokenID, req Requirement) (*Receipt, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	if !s.sealed {
		return nil, ErrNotSealed
	}
	res, err := s.fw.GenerateRS(target, req)
	if err != nil {
		return nil, err
	}
	return s.finishSpend(target, res, req)
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

	if !s.sealed {
		return nil, req, ErrNotSealed
	}
	res, achieved, err := s.fw.GenerateRSRelaxed(target, req, policy)
	if err != nil {
		return nil, achieved, err
	}
	rcpt, err := s.finishSpend(target, res, achieved)
	return rcpt, achieved, err
}

// finishSpend signs, double-spend-checks and commits a selected ring.
// Callers hold s.mu.
func (s *System) finishSpend(target TokenID, res selector.Result, req Requirement) (*Receipt, error) {
	rcpt := &Receipt{
		Tokens:      res.Tokens,
		Fee:         uint64(res.Size()) * s.opts.FeePerToken,
		ModuleCount: res.Modules,
		Iterations:  res.Iterations,
	}
	if !s.opts.DisableSigning {
		sig, err := s.sign(target, res.Tokens)
		if err != nil {
			return nil, err
		}
		imageKey := string(sig.Image.Bytes())
		if prior, used := s.images[imageKey]; used {
			return nil, fmt.Errorf("%w: first spent in %v", ErrDoubleSpend, prior)
		}
		rcpt.Signature = sig
		defer func() {
			if rcpt.Ring >= 0 {
				s.images[imageKey] = rcpt.Ring
			}
		}()
	} else if s.spentUnsigned(target) {
		return nil, fmt.Errorf("%w: token %v", ErrDoubleSpend, target)
	}
	id, err := s.fw.Commit(res.Tokens, req)
	if err != nil {
		return nil, err
	}
	rcpt.Ring = id
	if s.opts.DisableSigning {
		s.unsignedSpent(target)
	}
	return rcpt, nil
}

// sign produces and self-verifies the ring signature for the spend.
func (s *System) sign(target TokenID, ring TokenSet) (*ringsig.Signature, error) {
	key, ok := s.keys[target]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoKey, target)
	}
	pubs := make([]ringsig.Point, len(ring))
	signerIdx := -1
	for i, tok := range ring {
		p, ok := s.pubs[tok]
		if !ok {
			return nil, fmt.Errorf("%w: %v", ErrNoKey, tok)
		}
		pubs[i] = p
		if tok == target {
			signerIdx = i
		}
	}
	sig, err := s.engine.SignVerifiedCtx(context.Background(), rand.Reader, key, pubs, signerIdx, node.Message(ring))
	var bad *ringsig.SelfCheckError
	if errors.As(err, &bad) {
		return nil, fmt.Errorf("tokenmagic: self-verification failed: %w", bad.Err)
	}
	return sig, err
}

// unsigned double-spend bookkeeping when crypto is disabled.
func (s *System) spentUnsigned(target TokenID) bool {
	_, used := s.images[unsignedKey(target)]
	return used
}

func (s *System) unsignedSpent(target TokenID) {
	s.images[unsignedKey(target)] = RSID(s.ledger.NumRS() - 1)
}

func unsignedKey(t TokenID) string { return fmt.Sprintf("unsigned/%d", t) }

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

	if !s.sealed {
		return -1, ErrNotSealed
	}
	return s.ledger.AppendRS(tokens, req.C, req.L)
}
