package tokenmagic

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/node"
	"tokenmagic/internal/ringsig"
	"tokenmagic/internal/selector"
	itm "tokenmagic/internal/tokenmagic"
)

// facadeOracle is the facade's spend path from before System drove
// node.Node, kept as the differential oracle: its own framework over its own
// ledger, seeded from Options.Seed; a key-image registry for signed spends
// and a per-target one for unsigned spends; and select → sign and
// self-verify → double-spend check → commit, one spend at a time.
type facadeOracle struct {
	opts     Options
	ledger   *chain.Ledger
	fw       *itm.Framework
	keys     map[TokenID]*ringsig.PrivateKey
	images   map[string]RSID
	unsigned map[TokenID]RSID
	engine   ringsig.Engine
}

func newFacadeOracle(t *testing.T, opts Options, blocks [][]int, keys map[TokenID]*ringsig.PrivateKey) *facadeOracle {
	t.Helper()
	opts = opts.withDefaults()
	led := chain.NewLedger()
	for _, txs := range blocks {
		b := led.BeginBlock()
		for _, n := range txs {
			if _, err := led.AddTx(b, n); err != nil {
				t.Fatal(err)
			}
		}
	}
	fw, err := itm.New(led, itm.Config{
		Lambda:    opts.Lambda,
		Eta:       opts.Eta,
		Headroom:  !opts.DisableHeadroom,
		Algorithm: opts.Algorithm,
		Randomize: opts.Randomize,
	}, mrand.New(mrand.NewSource(opts.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	return &facadeOracle{opts: opts, ledger: led, fw: fw, keys: keys, images: map[string]RSID{}, unsigned: map[TokenID]RSID{}}
}

// spend is Spend (policy nil) or SpendRelaxed as the facade ran them.
func (o *facadeOracle) spend(target TokenID, req Requirement, policy *RelaxationPolicy) (*Receipt, Requirement, error) {
	var res selector.Result
	var err error
	if policy == nil {
		res, err = o.fw.GenerateRS(target, req)
	} else {
		res, req, err = o.fw.GenerateRSRelaxed(context.Background(), target, req, *policy)
	}
	if err != nil {
		return nil, req, err
	}
	rcpt := &Receipt{Tokens: res.Tokens, Fee: uint64(res.Size()) * o.opts.FeePerToken}
	var imageKey string
	if !o.opts.DisableSigning {
		sig, err := o.sign(target, res.Tokens)
		if err != nil {
			return nil, req, err
		}
		imageKey = string(sig.Image.Bytes())
		if prior, used := o.images[imageKey]; used {
			return nil, req, fmt.Errorf("%w: first spent in %v", ErrDoubleSpend, prior)
		}
		rcpt.Signature = sig
	} else if prior, used := o.unsigned[target]; used {
		return nil, req, fmt.Errorf("%w: token %v, first spent in %v", ErrDoubleSpend, target, prior)
	}
	id, err := o.fw.Commit(res.Tokens, req)
	if err != nil {
		return nil, req, err
	}
	rcpt.Ring = id
	if o.opts.DisableSigning {
		o.unsigned[target] = id
	} else {
		o.images[imageKey] = id
	}
	return rcpt, req, nil
}

func (o *facadeOracle) sign(target TokenID, ring TokenSet) (*ringsig.Signature, error) {
	pubs := make([]ringsig.Point, len(ring))
	signerIdx := -1
	for i, tok := range ring {
		pubs[i] = o.keys[tok].Public
		if tok == target {
			signerIdx = i
		}
	}
	return o.engine.SignVerifiedCtx(context.Background(), rand.Reader, o.keys[target], pubs, signerIdx, node.Message(ring))
}

// errClass names the first sentinel err wraps, so the two paths are
// compared by error identity rather than wording.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, c := range []struct {
		name string
		err  error
	}{
		{"double_spend", ErrDoubleSpend},
		{"no_eligible", ErrNoEligible},
		{"no_candidate", itm.ErrSpentBatch},
		{"liveness", ErrLiveness},
		{"config", ErrConfig},
		{"diversity", ErrDiversity},
		{"bad_signature", ringsig.ErrInvalid},
	} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return "other"
}

// oracleBlocks is the differential chain: three 12-token blocks of mixed
// transaction shapes, one λ=12 batch each, small enough for the exact BFS
// solver's sweep.
var oracleBlocks = [][]int{
	{1, 2, 1, 3, 1, 2, 1, 1},
	{2, 1, 1, 2, 3, 1, 1, 1},
	{1, 1, 2, 1, 1, 2, 2, 2},
}

// TestSystemMatchesFacadeOracle: System, which now drives node.Node, and
// the facade's old spend path produce the same ring, RSID, achieved
// requirement, fee, signature presence and error class at every step, over
// seeds × Randomize × every Algorithm × signed/unsigned × Spend and
// SpendRelaxed, with repeated targets (double spends) mixed in.
func TestSystemMatchesFacadeOracle(t *testing.T) {
	reqs := []Requirement{{C: 1, L: 2}, {C: 1, L: 3}, {C: 1, L: 7}, {C: 2, L: 4}}
	policy := RelaxationPolicy{CStep: 0.5, LStep: 1}
	const steps = 12
	// seen tallies outcomes across the matrix, so the test also shows it
	// exercised what it compares.
	seen := map[string]int{}
	for _, seed := range []int64{3, 17} {
		for _, randomize := range []bool{false, true} {
			for _, algo := range []Algorithm{Progressive, Game, Smallest, RandomPick, BFS} {
				for _, unsigned := range []bool{false, true} {
					for _, relaxed := range []bool{false, true} {
						name := fmt.Sprintf("seed=%d/randomize=%v/%v/unsigned=%v/relaxed=%v", seed, randomize, algo, unsigned, relaxed)
						t.Run(name, func(t *testing.T) {
							opts := Options{Lambda: 12, Seed: seed, Algorithm: algo, Randomize: randomize, DisableSigning: unsigned, FeePerToken: 3}
							sys := NewSystem(opts)
							var ids []TokenID
							for _, txs := range oracleBlocks {
								minted, err := sys.MintBlock(txs...)
								if err != nil {
									t.Fatal(err)
								}
								ids = append(ids, minted...)
							}
							if err := sys.Seal(); err != nil {
								t.Fatal(err)
							}
							o := newFacadeOracle(t, opts, oracleBlocks, sys.keys)

							// Fresh targets in a seeded order; every fourth step
							// repeats an earlier one.
							pick := mrand.New(mrand.NewSource(seed))
							order := pick.Perm(len(ids))
							var tried []TokenID
							for step := 0; step < steps; step++ {
								target := ids[order[step]]
								if step%4 == 3 {
									target = tried[pick.Intn(len(tried))]
								}
								tried = append(tried, target)
								req := reqs[step%len(reqs)]

								var got, want *Receipt
								gotReq, wantReq := req, req
								var gotErr, wantErr error
								if relaxed {
									got, gotReq, gotErr = sys.SpendRelaxed(target, req, policy)
									want, wantReq, wantErr = o.spend(target, req, &policy)
								} else {
									got, gotErr = sys.Spend(target, req)
									want, _, wantErr = o.spend(target, req, nil)
								}
								if errClass(gotErr) != errClass(wantErr) {
									t.Fatalf("step %d (%v under %v): System err %v, oracle err %v", step, target, req, gotErr, wantErr)
								}
								seen[errClass(gotErr)]++
								if relaxed && gotErr == nil && gotReq != req {
									seen["relaxed"]++
								}
								if gotReq != wantReq {
									t.Fatalf("step %d (%v under %v): System achieved %v, oracle %v", step, target, req, gotReq, wantReq)
								}
								if gotErr != nil {
									continue
								}
								if !got.Tokens.Equal(want.Tokens) || got.Ring != want.Ring || got.Fee != want.Fee {
									t.Fatalf("step %d (%v under %v): System %v ring %v fee %d, oracle %v ring %v fee %d",
										step, target, req, got.Ring, got.Tokens, got.Fee, want.Ring, want.Tokens, want.Fee)
								}
								if (got.Signature != nil) != !unsigned || (want.Signature != nil) != !unsigned {
									t.Fatalf("step %d: signature present: System %v, oracle %v, signing %v",
										step, got.Signature != nil, want.Signature != nil, !unsigned)
								}
							}
							if sys.NumRings() != o.ledger.NumRS() {
								t.Fatalf("System holds %d rings, oracle %d", sys.NumRings(), o.ledger.NumRS())
							}
						})
					}
				}
			}
		}
	}
	t.Logf("outcomes across the matrix: %v", seen)
	for _, class := range []string{"ok", "double_spend", "relaxed", "no_eligible"} {
		if seen[class] == 0 {
			t.Errorf("no step ended %s (outcomes %v)", class, seen)
		}
	}
}
