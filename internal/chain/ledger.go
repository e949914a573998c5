package chain

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Token is one unspent transaction output. The DA-MS algorithms only care
// about Origin (the historical transaction that produced the token); Block is
// kept so batches can be derived from block order, and Amount exists so the
// examples can model fees realistically.
type Token struct {
	ID     TokenID
	Origin TxID    // the historical transaction (HT) that output this token
	Block  BlockID // block in which the HT was recorded
	Amount uint64  // denominated value; unused by the solvers
}

// Tx is a historical transaction: it consumes some rings and produces output
// tokens. For the selection problem only the output side matters.
type Tx struct {
	ID      TxID
	Block   BlockID
	Outputs []TokenID
}

// RingRecord is a ring signature as it appears on the ledger: a token set
// (consumed token + mixins, indistinguishable to observers), the declared
// recursive (c, ℓ)-diversity requirement, and its proposal position.
type RingRecord struct {
	ID     RSID
	Tokens TokenSet
	C      float64 // declared diversity parameter c
	L      int     // declared diversity parameter ℓ
	Pos    int     // proposal order (timestamp π); equals int(ID)
}

// OpKind names one of the three ledger mutations. Together they are the
// complete op vocabulary: any ledger state is exactly the fold of an op
// sequence over the empty ledger, which is what the persistent store
// (internal/store) journals and replays.
type OpKind string

// The ledger op vocabulary.
const (
	OpBlock OpKind = "block" // BeginBlock
	OpTx    OpKind = "tx"    // AddTxAmounts
	OpRS    OpKind = "rs"    // AppendRS
)

// Op is one journaled ledger mutation. Seq is the op's position in the
// ledger's history: the op that takes the ledger from epoch n to epoch n+1
// has Seq n, so Seq doubles as the epoch the op was applied at.
type Op struct {
	Seq     uint64   `json:"seq"`
	Kind    OpKind   `json:"op"`
	Block   BlockID  `json:"block,omitempty"`
	Amounts []uint64 `json:"amounts,omitempty"`
	Tokens  TokenSet `json:"tokens,omitempty"`
	C       float64  `json:"c,omitempty"`
	L       int      `json:"l,omitempty"`
}

// Journal receives every ledger mutation, write-ahead: Append is called
// after the op validated but before it is applied, and an Append error
// aborts the mutation (the caller sees the error, the ledger is unchanged).
// Committed is called after the op applied and the successor view published,
// with that view — the hook snapshots and epoch telemetry key off.
// Journal methods run under the ledger's mutation lock and must not call
// back into ledger mutators.
type Journal interface {
	Append(op Op) error
	Committed(v *View)
}

// View is an immutable snapshot of the ledger at one epoch. Readers obtain
// one with Ledger.View() — a single atomic load — and can then read it
// forever without locks: mutators never modify a published view, they
// publish a successor. The epoch is the number of ops applied so far, so it
// increases by exactly one per mutation.
//
// Views share backing arrays with their successors (appends extend, never
// overwrite, the committed prefix), so pinning a view costs nothing beyond
// retaining the chain state that existed when it was published.
type View struct {
	epoch   uint64
	tokens  []Token
	txs     []Tx
	nblocks int
	rings   []RingRecord
}

// Ledger is the append-only chain state: all historical transactions, all
// tokens and all ring signatures in proposal order.
//
// Concurrency: mutators serialise on an internal lock and publish immutable
// epoch-numbered views; every read method delegates to the current view, so
// reads are always safe concurrently with mutation and observe either the
// pre- or post-op state, never a half-applied one. Readers that need a
// consistent multi-call snapshot pin one View() and read from it.
type Ledger struct {
	mu      sync.Mutex // serialises mutators and journal emission
	view    atomic.Pointer[View]
	journal Journal
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	l := &Ledger{}
	l.view.Store(&View{})
	return l
}

// Errors returned by ledger mutations.
var (
	ErrUnknownToken = errors.New("chain: unknown token")
	ErrUnknownTx    = errors.New("chain: unknown transaction")
	ErrUnknownRS    = errors.New("chain: unknown ring signature")
	ErrEmptyRing    = errors.New("chain: ring signature must contain at least one token")
	ErrBadOp        = errors.New("chain: malformed ledger op")
	ErrOpSeq        = errors.New("chain: op sequence does not match ledger epoch")
	// ErrJournal wraps a failed journal append: an I/O fault of the node,
	// not a verdict on the op, which was not applied.
	ErrJournal = errors.New("chain: journal append")
)

// SetJournal installs the mutation journal. Install it before the ledger is
// shared across goroutines (typically right after recovery); a nil journal
// disables journaling.
func (l *Ledger) SetJournal(j Journal) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.journal = j
}

// View returns the current immutable snapshot (one atomic load).
func (l *Ledger) View() *View { return l.view.Load() }

// Epoch returns the number of ops applied to the ledger so far.
func (l *Ledger) Epoch() uint64 { return l.view.Load().epoch }

// publish journals op (write-ahead), builds the successor view with build,
// stores it and notifies the journal. Callers hold l.mu and have validated
// the op against v.
func (l *Ledger) publish(v *View, op Op, build func() *View) error {
	if l.journal != nil {
		if err := l.journal.Append(op); err != nil {
			return fmt.Errorf("%w: %w", ErrJournal, err)
		}
	}
	nv := build()
	nv.epoch = v.epoch + 1
	l.view.Store(nv)
	if l.journal != nil {
		l.journal.Committed(nv)
	}
	return nil
}

// BeginBlock appends a new empty block and returns its id.
func (l *Ledger) BeginBlock() BlockID {
	id, err := l.BeginBlockErr()
	if err != nil {
		// Only the journal can fail a block append; without one this is
		// unreachable. Panicking preserves the historical no-error signature
		// for the non-persistent callers that dominate the codebase.
		panic(err)
	}
	return id
}

// BeginBlockErr is BeginBlock with the journal error surfaced; persistent
// deployments (where an append can fail on I/O) must use this form.
func (l *Ledger) BeginBlockErr() (BlockID, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := l.view.Load()
	id := BlockID(v.nblocks)
	err := l.publish(v, Op{Seq: v.epoch, Kind: OpBlock}, func() *View {
		return &View{tokens: v.tokens, txs: v.txs, nblocks: v.nblocks + 1, rings: v.rings}
	})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// AddTx records a historical transaction with n output tokens in the given
// block and returns the new TxID. Amounts default to 1 each.
func (l *Ledger) AddTx(block BlockID, nOutputs int) (TxID, error) {
	return l.AddTxAmounts(block, make([]uint64, nOutputs))
}

// AddTxAmounts records a historical transaction with one output token per
// amount (zero amounts are normalised to 1).
func (l *Ledger) AddTxAmounts(block BlockID, amounts []uint64) (TxID, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := l.view.Load()
	if int(block) >= v.nblocks || block < 0 {
		return NoTx, fmt.Errorf("chain: block %v does not exist", block)
	}
	// Normalise before journaling so the op replays byte-identically.
	norm := make([]uint64, len(amounts))
	for i, a := range amounts {
		if a == 0 {
			a = 1
		}
		norm[i] = a
	}
	tx := Tx{ID: TxID(len(v.txs)), Block: block}
	err := l.publish(v, Op{Seq: v.epoch, Kind: OpTx, Block: block, Amounts: norm}, func() *View {
		tokens := v.tokens
		for _, a := range norm {
			tok := Token{ID: TokenID(len(tokens)), Origin: tx.ID, Block: block, Amount: a}
			tokens = append(tokens, tok)
			tx.Outputs = append(tx.Outputs, tok.ID)
		}
		return &View{tokens: tokens, txs: append(v.txs, tx), nblocks: v.nblocks, rings: v.rings}
	})
	if err != nil {
		return NoTx, err
	}
	return tx.ID, nil
}

// AppendRS records a ring signature with its declared diversity requirement
// and returns its RSID. Tokens must all exist.
func (l *Ledger) AppendRS(tokens TokenSet, c float64, lreq int) (RSID, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := l.view.Load()
	if len(tokens) == 0 {
		return -1, ErrEmptyRing
	}
	for _, t := range tokens {
		if int(t) >= len(v.tokens) || t < 0 {
			return -1, fmt.Errorf("%w: %v", ErrUnknownToken, t)
		}
	}
	id := RSID(len(v.rings))
	clone := tokens.Clone()
	err := l.publish(v, Op{Seq: v.epoch, Kind: OpRS, Tokens: clone, C: c, L: lreq}, func() *View {
		rec := RingRecord{ID: id, Tokens: clone, C: c, L: lreq, Pos: int(id)}
		return &View{tokens: v.tokens, txs: v.txs, nblocks: v.nblocks, rings: append(v.rings, rec)}
	})
	if err != nil {
		return -1, err
	}
	return id, nil
}

// Apply replays one journaled op. The op's Seq must equal the ledger's
// current epoch (ErrOpSeq otherwise), which makes replay idempotence checks
// and gap detection the caller's one-line job. Used by the persistent store
// during recovery; the journal, if any, sees the op again like a live one.
func (l *Ledger) Apply(op Op) error {
	if op.Seq != l.Epoch() {
		return fmt.Errorf("%w: op seq %d, ledger epoch %d", ErrOpSeq, op.Seq, l.Epoch())
	}
	switch op.Kind {
	case OpBlock:
		_, err := l.BeginBlockErr()
		return err
	case OpTx:
		_, err := l.AddTxAmounts(op.Block, op.Amounts)
		return err
	case OpRS:
		_, err := l.AppendRS(op.Tokens, op.C, op.L)
		return err
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrBadOp, op.Kind)
	}
}

// Ledger read methods: each delegates to the current view. Callers that need
// several reads to agree on one chain state should pin l.View() themselves.

// NumTokens returns the number of tokens ever created.
func (l *Ledger) NumTokens() int { return l.View().NumTokens() }

// NumTxs returns the number of historical transactions.
func (l *Ledger) NumTxs() int { return l.View().NumTxs() }

// NumBlocks returns the chain height.
func (l *Ledger) NumBlocks() int { return l.View().NumBlocks() }

// NumRS returns the number of recorded ring signatures.
func (l *Ledger) NumRS() int { return l.View().NumRS() }

// Token returns the token with the given id.
func (l *Ledger) Token(id TokenID) (Token, error) { return l.View().Token(id) }

// Origin returns the historical transaction of a token, or NoTx if unknown.
func (l *Ledger) Origin(id TokenID) TxID { return l.View().Origin(id) }

// OriginFunc returns a fast token→HT lookup closure over the current tokens.
// The closure stays valid for tokens existing at call time even if more
// tokens are appended later.
func (l *Ledger) OriginFunc() func(TokenID) TxID { return l.View().OriginFunc() }

// Tx returns the transaction with the given id.
func (l *Ledger) Tx(id TxID) (Tx, error) { return l.View().Tx(id) }

// RS returns the ring signature with the given id.
func (l *Ledger) RS(id RSID) (RingRecord, error) { return l.View().RS(id) }

// Rings returns all ring signatures in proposal order. The returned slice is
// shared; callers must not mutate it.
func (l *Ledger) Rings() []RingRecord { return l.View().Rings() }

// TokensInBlocks returns all tokens produced by transactions in blocks
// [from, to] inclusive, sorted.
func (l *Ledger) TokensInBlocks(from, to BlockID) TokenSet {
	return l.View().TokensInBlocks(from, to)
}

// RingsOver returns, in proposal order, the ring signatures whose token sets
// intersect universe. This is the "R_π^T" of the paper restricted to a batch.
func (l *Ledger) RingsOver(universe TokenSet) []RingRecord {
	return l.View().RingsOver(universe)
}

// View read methods — the same contract as the Ledger methods of the same
// name, evaluated against this immutable snapshot.

// Epoch returns the number of ops that produced this view.
func (v *View) Epoch() uint64 { return v.epoch }

// NumTokens returns the number of tokens in this view.
func (v *View) NumTokens() int { return len(v.tokens) }

// NumTxs returns the number of historical transactions in this view.
func (v *View) NumTxs() int { return len(v.txs) }

// NumBlocks returns the chain height in this view.
func (v *View) NumBlocks() int { return v.nblocks }

// NumRS returns the number of ring signatures in this view.
func (v *View) NumRS() int { return len(v.rings) }

// Token returns the token with the given id.
func (v *View) Token(id TokenID) (Token, error) {
	if id < 0 || int(id) >= len(v.tokens) {
		return Token{}, fmt.Errorf("%w: %v", ErrUnknownToken, id)
	}
	return v.tokens[id], nil
}

// Origin returns the historical transaction of a token, or NoTx if unknown.
func (v *View) Origin(id TokenID) TxID {
	if id < 0 || int(id) >= len(v.tokens) {
		return NoTx
	}
	return v.tokens[id].Origin
}

// OriginFunc returns a fast token→HT lookup closure over this view's tokens.
func (v *View) OriginFunc() func(TokenID) TxID {
	tokens := v.tokens
	return func(id TokenID) TxID {
		if id < 0 || int(id) >= len(tokens) {
			return NoTx
		}
		return tokens[id].Origin
	}
}

// Tx returns the transaction with the given id.
func (v *View) Tx(id TxID) (Tx, error) {
	if id < 0 || int(id) >= len(v.txs) {
		return Tx{}, fmt.Errorf("%w: %v", ErrUnknownTx, id)
	}
	return v.txs[id], nil
}

// RS returns the ring signature with the given id.
func (v *View) RS(id RSID) (RingRecord, error) {
	if id < 0 || int(id) >= len(v.rings) {
		return RingRecord{}, fmt.Errorf("%w: %v", ErrUnknownRS, id)
	}
	return v.rings[id], nil
}

// Rings returns all ring signatures in proposal order. The returned slice is
// shared; callers must not mutate it.
func (v *View) Rings() []RingRecord { return v.rings }

// TokensInBlocks returns all tokens produced by transactions in blocks
// [from, to] inclusive, sorted.
func (v *View) TokensInBlocks(from, to BlockID) TokenSet {
	var out TokenSet
	for _, tok := range v.tokens {
		if tok.Block >= from && tok.Block <= to {
			out = append(out, tok.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RingsOver returns, in proposal order, the ring signatures whose token sets
// intersect universe.
func (v *View) RingsOver(universe TokenSet) []RingRecord {
	var out []RingRecord
	for _, r := range v.rings {
		if !r.Tokens.Disjoint(universe) {
			out = append(out, r)
		}
	}
	return out
}

// Ops returns a canonical op sequence that rebuilds exactly this view's
// state on an empty ledger: all blocks, then transactions in id order, then
// rings in proposal order. The sequence has the same length as the view's
// epoch (one op per historical mutation), so the rebuilt ledger lands on the
// same epoch; only the interleaving of the original history is lost, never
// the state. Used to seed a fresh persistent store from an existing chain.
func (v *View) Ops() []Op {
	ops := make([]Op, 0, v.epoch)
	seq := uint64(0)
	for b := 0; b < v.nblocks; b++ {
		ops = append(ops, Op{Seq: seq, Kind: OpBlock})
		seq++
	}
	for _, tx := range v.txs {
		amounts := make([]uint64, len(tx.Outputs))
		for i, tok := range tx.Outputs {
			amounts[i] = v.tokens[tok].Amount
		}
		ops = append(ops, Op{Seq: seq, Kind: OpTx, Block: tx.Block, Amounts: amounts})
		seq++
	}
	for _, r := range v.rings {
		ops = append(ops, Op{Seq: seq, Kind: OpRS, Tokens: r.Tokens, C: r.C, L: r.L})
		seq++
	}
	return ops
}
