package main

import (
	"context"
	crand "crypto/rand"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"tokenmagic/internal/adversary/graphattack"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/node"
	"tokenmagic/internal/ringsig"
	"tokenmagic/internal/selector"
	"tokenmagic/internal/store"
	itm "tokenmagic/internal/tokenmagic"
)

// Probe sizes: enough calls per layer for a steady mean, few enough that
// the probes stay a small part of a traced run.
const (
	probeSpends   = 20  // select + commit calls on a copy of the final ledger
	probeProblems = 200 // Decompose / NewProblem / solve calls
	probeRings    = 32  // sign + verify calls
	probeRepeats  = 3   // whole-ledger calls (framework build, DM), median taken
)

// probeInput is a workload's final state: the ledger the layers are probed
// on and tokens still unspent on it.
type probeInput struct {
	view    *chain.View
	lambda  int
	unspent []chain.TokenID
	seed    int64
	work    string
}

// probeLayers times each layer's public functions on inputs drawn from the
// workload's final ledger, so every layer gets a number on every workload
// even when the workload's own operations do not call it.
func probeLayers(rep *report, in probeInput) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(in.seed ^ 0x70726f6265))
	led, err := copyLedger(in.view)
	if err != nil {
		return err
	}
	origin := in.view.OriginFunc()

	// tokenmagic: framework construction (guards rebuilt from the whole
	// chain), then Algorithm-1 selection and commit of unspent tokens.
	var fw *itm.Framework
	var builds []float64
	for i := 0; i < probeRepeats; i++ {
		d := timed(func() { fw, err = itm.New(led, frameworkConfig(in.lambda), nil) })
		if err != nil {
			return err
		}
		builds = append(builds, msOf(d))
	}
	var selects, commits []float64
	for _, t := range in.unspent {
		var sel selector.Result
		d := timed(func() { sel, err = fw.GenerateRSContext(ctx, t, spendReq) })
		if err != nil {
			continue
		}
		selects = append(selects, msOf(d))
		d = timed(func() { _, err = fw.CommitCtx(ctx, sel.Tokens, spendReq) })
		if err == nil {
			commits = append(commits, msOf(d))
		}
	}
	rep.check(len(commits) > 0, "probe: none of %d unspent tokens could be spent", len(in.unspent))

	// selector: the per-candidate work of Algorithm 1, on random batch tokens.
	var decomp, problem, solve []float64
	req := spendReq.WithHeadroom()
	batches := fw.Batches()
	for i := 0; i < probeProblems; i++ {
		t := chain.TokenID(rng.Intn(in.view.NumTokens()))
		b, err := batches.BatchOf(t)
		if err != nil {
			return err
		}
		rings := in.view.RingsOver(b.Tokens)
		var supers []selector.Super
		var fresh chain.TokenSet
		decomp = append(decomp, usOf(timed(func() { supers, fresh = selector.Decompose(rings, b.Tokens) })))
		var p *selector.Problem
		problem = append(problem, usOf(timed(func() { p, err = selector.NewProblem(t, supers, fresh, origin, req) })))
		if err != nil {
			return err
		}
		solve = append(solve, usOf(timed(func() { _, _ = selector.ProgressiveCtx(ctx, p) })))
	}

	// ringsig: sign and verify over rings taken from the ledger, each member
	// keyed afresh, verified by an engine warmed like the node's.
	rings := in.view.Rings()
	if len(rings) == 0 {
		return fmt.Errorf("probe: the final ledger holds no rings")
	}
	var signs, verifies, sizes []float64
	keyOf := make(map[chain.TokenID]*ringsig.PrivateKey)
	engine := &ringsig.Engine{Hp: ringsig.NewHpCache(), Seen: ringsig.NewSigCache(sigCacheEntries)}
	for i := 0; i < probeRings; i++ {
		r := rings[rng.Intn(len(rings))]
		pubs := make([]ringsig.Point, len(r.Tokens))
		for j, tok := range r.Tokens {
			if keyOf[tok] == nil {
				if keyOf[tok], err = ringsig.GenerateKey(rng); err != nil {
					return err
				}
				engine.Hp.Precompute([]ringsig.Point{keyOf[tok].Public})
			}
			pubs[j] = keyOf[tok].Public
		}
		msg := node.Message(r.Tokens)
		var sig *ringsig.Signature
		signs = append(signs, msOf(timed(func() { sig, err = ringsig.SignCtx(ctx, crand.Reader, keyOf[r.Tokens[0]], pubs, 0, msg) })))
		if err != nil {
			return err
		}
		verifies = append(verifies, msOf(timed(func() { err = engine.VerifyCtx(ctx, sig, pubs, msg) })))
		rep.check(err == nil, "probe: ring signature over %v does not verify: %v", r.Tokens, err)
	}
	for _, r := range rings {
		sizes = append(sizes, float64(len(r.Tokens)))
	}

	// rsgraph: the DM decomposition of the whole ledger.
	var dms []float64
	for i := 0; i < probeRepeats; i++ {
		dms = append(dms, msOf(timed(func() { graphattack.DM(rings, nil, origin) })))
	}

	appendUS, openMS, bytesPerOp, err := probeStore(rep, led.View(), in.lambda, filepath.Join(in.work, "probe-store"))
	if err != nil {
		return err
	}

	rep.add("selector.decompose_us", mean(decomp), "us")
	rep.add("selector.problem_us", mean(problem), "us")
	rep.add("selector.solve_us", mean(solve), "us")
	rep.add("selector.ring_size", mean(sizes), "tokens")
	rep.add("tokenmagic.new_ms", median(builds), "ms")
	rep.add("tokenmagic.select_ms", mean(selects), "ms")
	rep.add("tokenmagic.commit_ms", mean(commits), "ms")
	rep.add("ringsig.sign_ms", mean(signs), "ms")
	rep.add("ringsig.verify_ms", mean(verifies), "ms")
	rep.add("rsgraph.dm_ms", median(dms), "ms")
	rep.add("store.append_us", appendUS, "us")
	rep.add("store.open_ms", openMS, "ms")
	rep.add("store.bytes_per_op", bytesPerOp, "B")
	rep.add("bench.calib_ms", calibMS(), "ms")
	return nil
}

// appendTimer accumulates the time spent in the wrapped journal's Append.
type appendTimer struct {
	chain.Journal
	total time.Duration
	n     int
}

func (a *appendTimer) Append(op chain.Op) error {
	start := time.Now()
	err := a.Journal.Append(op)
	a.total += time.Since(start)
	a.n++
	return err
}

// probeStore writes the ledger into a fresh store (the durable node's
// options, fsync off), reopens it and checks the reopened ledger is the
// same. It returns the mean append time, the reopen time and the store's
// size per journaled op.
func probeStore(rep *report, v *chain.View, lambda int, dir string) (appendUS, openMS, bytesPerOp float64, err error) {
	if err = os.RemoveAll(dir); err != nil {
		return
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()
	st, err := store.Open(dir, storeOptions(lambda, false))
	if err != nil {
		return
	}
	timer := &appendTimer{Journal: st.Log}
	st.Ledger.SetJournal(timer)
	if err = store.Seed(st.Ledger, v); err != nil {
		_ = st.Close()
		return
	}
	if err = st.Close(); err != nil {
		return
	}
	d := timed(func() { st, err = store.Open(dir, storeOptions(lambda, false)) })
	if err != nil {
		return
	}
	want, err := store.Digest(v)
	if err != nil {
		_ = st.Close()
		return
	}
	got, err := store.Digest(st.Ledger.View())
	if err != nil {
		_ = st.Close()
		return
	}
	rep.check(got == want, "probe: reopened store digest %.12s, wrote %.12s", got, want)
	if err = st.Close(); err != nil {
		return
	}
	var size int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, werr error) error {
		if werr != nil || d.IsDir() {
			return werr
		}
		info, ierr := d.Info()
		if ierr == nil {
			size += info.Size()
		}
		return ierr
	})
	return usOf(timer.total) / float64(timer.n), msOf(d), float64(size) / float64(v.Epoch()), err
}

// calibMS times a fixed single-core sha256 loop: a canary for host speed
// drift between runs, unrelated to the program under test.
func calibMS() float64 {
	buf := make([]byte, 1<<20)
	var xs []float64
	for i := 0; i < 5; i++ {
		xs = append(xs, msOf(timed(func() {
			for j := 0; j < 16; j++ {
				sum := sha256.Sum256(buf)
				buf[0] = sum[0]
			}
		})))
	}
	return median(xs)
}
