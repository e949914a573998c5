package tokenmagic

// The η guard reads its batch's rings straight off the pinned ledger view
// (RingsOver, the same list the superset-or-disjoint check walks). The
// oracle here is the bookkeeping it replaced: a per-batch ring history,
// each ring filed under the batch of its first token, and μ taken from the
// DM decomposition of that history plus the candidate. Seeded streams of
// spends, ring probes, raw single-batch appends and block growth go through
// both, and every VerifyRS and Commit verdict must match, down to the i and
// μ each liveness refusal reports.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/rsgraph"
	"tokenmagic/internal/workload"
)

// guardOracle computes Step-3 verdicts the old way. The checks before the
// guard are unchanged code, so it takes them from an η = 0 framework over
// the same ledger, and adds the guard over its own ring history.
type guardOracle struct {
	led    *chain.Ledger
	lambda int
	eta    float64
	noEta  *Framework
}

func (o *guardOracle) verify(tokens chain.TokenSet, req diversity.Requirement) error {
	if err := o.noEta.VerifyRS(tokens, req); err != nil {
		return err
	}
	v := o.led.View()
	batches, err := chain.BuildBatchesView(v, o.lambda)
	if err != nil {
		return err
	}
	b, err := batches.BatchOf(tokens[0])
	if err != nil {
		return err
	}
	// The batch's history: every ring filed under its first token's batch.
	var hist []chain.RingRecord
	for _, r := range v.Rings() {
		if rb, err := batches.BatchOf(r.Tokens[0]); err == nil && rb.Index == b.Index {
			hist = append(hist, r)
		}
	}
	effSize := len(b.Tokens)
	if effSize < o.lambda {
		effSize = o.lambda + effSize - 1
	}
	i := len(hist) + 1
	hist = append(hist, chain.RingRecord{ID: chain.RSID(v.NumRS()), Tokens: tokens})
	mu := len(rsgraph.FromRecords(hist).Decompose().ProvablyConsumed())
	bound := float64(i) - o.eta*float64(effSize-i)
	if bound < 0 {
		bound = 0
	}
	if float64(mu) > bound {
		return fmt.Errorf("%w: i=%d μ=%d |T|=%d η=%v", ErrLiveness, i, mu, effSize, o.eta)
	}
	return nil
}

// guardStreamCounts tallies what a stream exercised, so the tests can
// insist that the guard both admitted and refused.
type guardStreamCounts struct {
	admits, liveness, catchups int
}

// sameVerdict fails unless got and want are both nil or carry the same
// message (a liveness refusal's message holds its i, μ, |T| and η).
func sameVerdict(t testing.TB, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: framework says %v, oracle says %v", what, got, want)
	}
}

// runGuardStream drives one seeded stream of steps operations through a
// framework at (λ, η) and the oracle over the same ledger.
func runGuardStream(t testing.TB, seed int64, lambda int, eta float64, steps int) guardStreamCounts {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d, err := workload.Synthetic(workload.SyntheticParams{
		NumSupers:    rng.Intn(4),
		SuperSizeMin: 1 + rng.Intn(2),
		SuperSizeMax: 3 + rng.Intn(2),
		NumFresh:     6 + rng.Intn(12),
		Sigma:        1 + float64(rng.Intn(4)),
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	led := d.Ledger
	cfg := Config{
		Lambda: lambda, Eta: eta, Headroom: true,
		Algorithm: Progressive, Randomize: true, Metrics: obs.NewRegistry(),
	}
	fw, err := New(led, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Eta, cfg.Metrics = 0, obs.NewRegistry()
	noEta, err := New(led, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := &guardOracle{led: led, lambda: lambda, eta: eta, noEta: noEta}
	ctx := context.Background()
	var n guardStreamCounts
	tally := func(err error) {
		switch {
		case err == nil:
			n.admits++
		case errors.Is(err, ErrLiveness):
			n.liveness++
		}
	}

	// proposal draws a ring inside one batch of the live chain: a twin of
	// one of the batch's rings (the shape that closes a token set and so
	// trips the guard), that ring extended by a batch token, or a small
	// random subset of the batch.
	proposal := func() chain.TokenSet {
		v := led.View()
		batches, err := chain.BuildBatchesView(v, lambda)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := batches.Batch(rng.Intn(batches.Len()))
		pickToken := func() chain.TokenID { return b.Tokens[rng.Intn(len(b.Tokens))] }
		rings := v.RingsOver(b.Tokens)
		switch k := rng.Intn(3); {
		case k < 2 && len(rings) > 0:
			toks := rings[rng.Intn(len(rings))].Tokens
			if k == 1 {
				toks = toks.Add(pickToken())
			}
			return toks
		default:
			var toks chain.TokenSet
			for j := 1 + rng.Intn(4); j > 0; j-- {
				toks = toks.Add(pickToken())
			}
			return toks
		}
	}

	for step := 0; step < steps; step++ {
		req := diversity.Requirement{C: float64(1 + rng.Intn(2)), L: 1 + rng.Intn(2)}
		what := fmt.Sprintf("seed %d λ=%d η=%v step %d", seed, lambda, eta, step)
		switch op := rng.Intn(20); {
		case op < 7: // a spend: generate, then commit
			target := chain.TokenID(rng.Intn(led.NumTokens()))
			res, gerr := fw.GenerateRSSeeded(ctx, target, req, rng.Int63())
			if gerr != nil {
				continue
			}
			want := o.verify(res.Tokens, req)
			_, err := fw.Commit(res.Tokens, req)
			sameVerdict(t, what+" commit(generated)", err, want)
			tally(err)
		case op < 11: // a probe
			toks := proposal()
			want := o.verify(toks, req)
			err := fw.VerifyRS(toks, req)
			sameVerdict(t, what+" verify", err, want)
			tally(err)
		case op < 14: // a commit of a probe
			toks := proposal()
			want := o.verify(toks, req)
			_, err := fw.Commit(toks, req)
			sameVerdict(t, what+" commit", err, want)
			tally(err)
		case op < 16: // a raw single-batch append past every check
			if _, err := led.AppendRS(proposal(), req.C, req.L); err != nil {
				t.Fatal(err)
			}
			n.catchups++
		case op < 19: // block growth: new tokens, maybe a new batch
			if _, err := led.AddTx(led.BeginBlock(), 1+rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
			n.catchups++
		default: // a catch-up read
			v, _, err := fw.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if v.Epoch() != led.Epoch() || fw.Epoch() != led.Epoch() {
				t.Fatalf("%s: snapshot epoch %d, Epoch() %d, ledger epoch %d", what, v.Epoch(), fw.Epoch(), led.Epoch())
			}
		}
	}
	return n
}

func TestGuardMatchesRingHistory(t *testing.T) {
	var total guardStreamCounts
	for _, lambda := range []int{12, 100} {
		for _, eta := range []float64{0.1, 0.5, 1} {
			for seed := int64(0); seed < 30; seed++ {
				n := runGuardStream(t, seed, lambda, eta, 80)
				total.admits += n.admits
				total.liveness += n.liveness
				total.catchups += n.catchups
			}
		}
	}
	t.Logf("admits=%d liveness refusals=%d ledger moves outside the framework=%d", total.admits, total.liveness, total.catchups)
	if total.admits == 0 || total.liveness == 0 || total.catchups == 0 {
		t.Fatalf("the streams left a path untried: %+v", total)
	}
}

func FuzzGuardMatchesRingHistory(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(7), uint8(1), uint8(1))
	f.Add(int64(-3), uint8(0), uint8(2))
	f.Add(int64(1<<33), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, lambdaSel, etaSel uint8) {
		lambda := []int{12, 100}[lambdaSel%2]
		eta := []float64{0.1, 0.5, 1}[etaSel%3]
		runGuardStream(t, seed, lambda, eta, 40)
	})
}
