package tokenmagic

// The per-token Algorithm-1 sweep, kept as the oracle of the module memo in
// sampleCandidates, and the deterministic differential test between them.

import (
	"context"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/selector"
	"tokenmagic/internal/workload"
)

// oracleCandidates is Algorithm 1's sweep as the paper states it: one solve
// per batch token in batch token order, keeping the results that contain
// the consuming token and stopping at the first StopAfter of them.
func (f *Framework) oracleCandidates(ctx context.Context, sw *sweep) ([]selector.Result, error) {
	var out []selector.Result
	for i, tok := range sw.universe {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, ok := f.solveCandidate(ctx, sw, tok, i)
		if !ok {
			continue
		}
		out = append(out, res)
		if f.cfg.StopAfter > 0 && len(out) >= f.cfg.StopAfter {
			break
		}
	}
	return out, nil
}

// sweepPair runs the memoised sweep and the oracle over one request at the
// framework's current epoch. ok is false when the target has no batch.
func sweepPair(tb testing.TB, f *Framework, target chain.TokenID, req diversity.Requirement, seed int64) (got, want []selector.Result, solves, oracleSolves int64, ok bool) {
	tb.Helper()
	e := f.epoch.Load()
	b, err := e.batches.BatchOf(target)
	if err != nil {
		return nil, nil, 0, 0, false
	}
	ctx := context.Background()
	sw := f.newSweep(e, b, target, req, seed)
	if got, err = f.sampleCandidates(ctx, sw); err != nil {
		tb.Fatal(err)
	}
	osw := f.newSweep(e, b, target, req, seed)
	if want, err = f.oracleCandidates(ctx, osw); err != nil {
		tb.Fatal(err)
	}
	return got, want, sw.solves, osw.solves, true
}

// assertSameSweep fails unless the two candidate lists agree candidate by
// candidate (ring, module count and Iterations), and GenerateRSSeeded picks
// the oracle list's uniform pick for seed.
func assertSameSweep(tb testing.TB, label string, f *Framework, target chain.TokenID, req diversity.Requirement, seed int64, got, want []selector.Result) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d candidates, oracle %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Tokens.Equal(w.Tokens) || g.Modules != w.Modules || g.Iterations != w.Iterations {
			tb.Fatalf("%s: candidate %d is %v (modules %d, iterations %d), oracle %v (modules %d, iterations %d)",
				label, i, g.Tokens, g.Modules, g.Iterations, w.Tokens, w.Modules, w.Iterations)
		}
	}
	res, err := f.GenerateRSSeeded(context.Background(), target, req, seed)
	if len(want) == 0 {
		if err == nil {
			tb.Fatalf("%s: oracle has no candidate, GenerateRSSeeded returned %v", label, res.Tokens)
		}
		return
	}
	if err != nil {
		tb.Fatalf("%s: GenerateRSSeeded: %v", label, err)
	}
	pick := want[streamRand(seed, pickStream).Intn(len(want))]
	if !res.Tokens.Equal(pick.Tokens) || res.Iterations != pick.Iterations {
		tb.Fatalf("%s: picked %v (iterations %d), oracle pick %v (iterations %d)",
			label, res.Tokens, res.Iterations, pick.Tokens, pick.Iterations)
	}
}

// TM_P, TM_G and TM_S solve each module once; over one Nested batch of 800
// tokens with 400 rings and over RealMonero's λ=800 batches, the memoised
// sweep must return the per-token oracle's candidates, Iterations included,
// with and without the StopAfter budget, and with fewer solves on Nested.
func TestSweepMatchesPerTokenOracle(t *testing.T) {
	nested, err := workload.Nested(800, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	monero, err := workload.RealMonero(1)
	if err != nil {
		t.Fatal(err)
	}
	req := diversity.Requirement{C: 1, L: 3}
	for _, ds := range []struct {
		name string
		d    *workload.Dataset
	}{{"nested", nested}, {"monero", monero}} {
		for _, algo := range []Algorithm{Progressive, Game, Smallest} {
			for _, stopAfter := range []int{0, 8} {
				f, err := New(ds.d.Ledger, Config{
					Lambda: 800, Headroom: true, Algorithm: algo,
					Randomize: true, StopAfter: stopAfter, Metrics: obs.NewRegistry(),
				}, nil)
				if err != nil {
					t.Fatal(err)
				}
				fewer := false
				for k := 0; k < len(ds.d.Universe) && k < 800; k += 97 {
					target := ds.d.Universe[k]
					seed := int64(1000*k + stopAfter)
					got, want, solves, oracleSolves, ok := sweepPair(t, f, target, req, seed)
					if !ok {
						continue
					}
					label := ds.name + "/" + algo.String()
					assertSameSweep(t, label, f, target, req, seed, got, want)
					if solves > oracleSolves {
						t.Fatalf("%s: %d solves, oracle %d", label, solves, oracleSolves)
					}
					fewer = fewer || solves < oracleSolves
				}
				if ds.name == "nested" && stopAfter == 0 && !fewer {
					t.Fatalf("nested/%v: the module memo saved no solve", algo)
				}
			}
		}
	}
}
