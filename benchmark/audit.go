package main

import (
	"fmt"
	"runtime"

	tm "tokenmagic"
	"tokenmagic/internal/adversary"
	"tokenmagic/internal/adversary/graphattack"
	"tokenmagic/internal/chain"
)

// auditWorkload is a sealed tokenmagic.System whose chain already holds
// rings, audited over and over: the auditor's read path.
type auditWorkload struct {
	shape chainShape
	rings int
	load  load
}

// auditTailQ is the percentile the audit workload reports as tail_ms: its
// ~70 audits a window leave fewer than ten beyond p90.
const auditTailQ = 0.80

// auditChain is a System with spent rings, plus what the benchmark knows
// about it from outside: the minted layout, the rings it committed and the
// spend stream (whose remaining tokens are unspent).
type auditChain struct {
	sys     *tm.System
	lay     layout
	rings   []chain.RingRecord
	targets *targets
}

func buildAudit(w auditWorkload, seed int64) (*auditChain, error) {
	lay := newLayout(w.shape, seed)
	sys := tm.NewSystem(tm.Options{Lambda: w.shape.lambda, Randomize: true, DisableSigning: true, Seed: seed})
	for _, txs := range lay {
		if _, err := sys.MintBlock(txs...); err != nil {
			return nil, err
		}
	}
	if err := sys.Seal(); err != nil {
		return nil, err
	}
	tg, err := newTargets(lay.population(), seed)
	if err != nil {
		return nil, err
	}
	// Spend seeded targets until the chain holds w.rings rings; a target the
	// System refuses (η guard, no eligible ring) is skipped, so the ring set
	// is still a pure function of the seed.
	for sys.NumRings() < w.rings {
		t, ok := tg.next()
		if !ok {
			return nil, fmt.Errorf("audit setup: population exhausted at %d rings", sys.NumRings())
		}
		_, _ = sys.Spend(t, spendReq)
	}
	c := &auditChain{sys: sys, lay: lay, targets: tg}
	for i := 0; i < sys.NumRings(); i++ {
		toks, err := sys.Ring(chain.RSID(i))
		if err != nil {
			return nil, err
		}
		c.rings = append(c.rings, chain.RingRecord{ID: chain.RSID(i), Tokens: toks, C: spendReq.C, L: spendReq.L, Pos: i})
	}
	return c, nil
}

// ledger rebuilds the System's chain as a ledger from the minted layout and
// the committed rings, for the layer probes.
func (c *auditChain) ledger() (*chain.Ledger, error) {
	led, err := c.lay.mint()
	if err != nil {
		return nil, err
	}
	for _, r := range c.rings {
		if _, err := led.AppendRS(r.Tokens, r.C, r.L); err != nil {
			return nil, err
		}
	}
	return led, nil
}

// sameReport reports whether a System audit equals the DM attack's metrics.
func sameReport(a tm.AuditReport, m adversary.Metrics) bool {
	return a.Rings == m.Rings && a.TracedRings == m.Traced && a.HTRevealedRings == m.HTRevealed &&
		a.AvgAnonymitySet == m.AvgAnonymity && a.ProvablyConsumed == m.ConsumedTokens
}

func runAudit(w auditWorkload, o options) (*report, error) {
	rep := &report{}
	var c *auditChain
	var setups []float64
	n := setupRuns
	if o.traced {
		n = 1
	}
	for k := 0; k < n; k++ {
		var err error
		d := timed(func() { c, err = buildAudit(w, o.seed) })
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	// The DM attack over the same rings, origins rebuilt from the minted
	// layout, is the reference every System audit must match.
	dm := graphattack.DM(c.rings, nil, c.lay.origin())
	rep.check(!dm.Degenerate && dm.Metrics.Traced == 0, "DM traces %d of %d rings (degenerate=%v)", dm.Metrics.Traced, dm.Metrics.Rings, dm.Degenerate)
	always := func() (chain.TokenID, bool) { return 0, true }

	if o.traced {
		rec := newRecorder()
		origin := c.lay.origin()
		// System.Audit's call sequence, each call timed: the chain-reaction
		// closure, then its summary.
		replay := func(id int64, _ chain.TokenID) error {
			ot := rec.begin(id, "tokenmagic.audit")
			sp := ot.start(0, "adversary.chain_reaction")
			a := adversary.ChainReaction(c.rings, nil, origin)
			ot.end(sp)
			sp = ot.start(0, "adversary.summarise")
			m := adversary.Summarise(a)
			ot.end(sp)
			ot.finish()
			if m != dm.Metrics {
				return errIncorrect{fmt.Sprintf("chain reaction reported %+v, DM %+v", m, dm.Metrics)}
			}
			return nil
		}
		runtime.GC()
		before := counters()
		res := drive(w.load, o.window, o.seed, always, replay)
		after := counters()
		rep.fromLoad(res)
		rep.replayMetrics(res, rec.breakdown(), before, after, 0)
		led, err := c.ledger()
		if err != nil {
			return nil, err
		}
		if err := probeLayers(rep, probeInput{view: led.View(), lambda: w.shape.lambda, unspent: c.targets.take(probeSpends), seed: o.seed, work: o.work}); err != nil {
			return nil, err
		}
		return rep, rec.write(o.traceOut)
	}

	audit := func(int64, chain.TokenID) error {
		if got := c.sys.Audit(); !sameReport(got, dm.Metrics) {
			return errIncorrect{fmt.Sprintf("System.Audit reported %+v, DM %+v", got, dm.Metrics)}
		}
		return nil
	}
	runtime.GC() // start every run from the same heap: no garbage from the earlier builds
	res := drive(w.load, o.window, o.seed, always, audit)
	heap := liveHeapMB()
	rep.fromLoad(res)
	rep.note("%d measured audits over %d rings", len(res.latMS), len(c.rings))
	rep.add("setup_s", median(setups), "s")
	rep.add("ops_per_s", res.opsPerSecond(), "1/s")
	rep.add("p50_ms", quantile(res.latMS, 0.5), "ms")
	rep.add("tail_ms", quantile(res.latMS, auditTailQ), "ms")
	rep.add("heap_mb", heap, "MiB")
	rep.add("anon_mean", dm.Metrics.AvgAnonymity, "tokens")
	return rep, nil
}
