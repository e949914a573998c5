package main

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tokenmagic/internal/adversary/graphattack"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/node"
	"tokenmagic/internal/nodesvc"
	"tokenmagic/internal/obs/trace"
	"tokenmagic/internal/ringsig"
	"tokenmagic/internal/store"
	itm "tokenmagic/internal/tokenmagic"
)

// spendWorkload is a chain plus a load of POST /v1/spend requests against
// a full node serving it.
type spendWorkload struct {
	shape   chainShape
	load    load
	durable bool
}

// spendTailQ is the percentile spend workloads report as tail_ms: every one
// of them measures enough spends in a window to leave at least ten beyond it.
const spendTailQ = 0.90

// spendReq is the diversity requirement every spend declares.
var spendReq = diversity.Requirement{C: 1, L: 3}

// frameworkConfig is the node's selection configuration: the paper's
// practical configuration (headroom, TM_P, Algorithm-1 candidate sampling)
// with serve's η, the candidate early stop and a worker per CPU.
func frameworkConfig(lambda int) itm.Config {
	return itm.Config{
		Lambda:    lambda,
		Eta:       0.1,
		Headroom:  true,
		Algorithm: itm.Progressive,
		Randomize: true,
		StopAfter: 8,
	}
}

// storeOptions is the durable node's store: 2 shards, 4 MiB segments and a
// snapshot every 512 ops.
func storeOptions(lambda int, fsync bool) store.Options {
	return store.Options{Shards: 2, Lambda: lambda, SegmentBytes: 4 << 20, SnapshotEvery: 512, Sync: fsync}
}

// Admission gate of the served node (obs.LimitConcurrency).
const (
	maxInFlight = 4
	maxQueue    = 8
)

// spendChain is a minted chain with a key for every token, persisted in a
// store for the durable workload.
type spendChain struct {
	led  *chain.Ledger
	keys map[chain.TokenID]*ringsig.PrivateKey
	st   *store.Store
	dir  string
}

func buildChain(w spendWorkload, lay layout, seed int64, dir string) (*spendChain, error) {
	led, err := lay.mint()
	if err != nil {
		return nil, err
	}
	keys, err := seededKeys(led, seed)
	if err != nil {
		return nil, err
	}
	c := &spendChain{led: led, keys: keys}
	if w.durable {
		st, err := seedStore(dir, w.shape.lambda, led.View())
		if err != nil {
			return nil, err
		}
		c.led, c.st, c.dir = st.Ledger, st, dir
	}
	return c, nil
}

// seedStore writes the chain into a fresh store and reopens it with an
// fsync on every append, as the durable node runs. Seeding itself skips
// fsync: a crash while seeding loses nothing the dataset cannot rebuild.
func seedStore(dir string, lambda int, v *chain.View) (*store.Store, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := store.Open(dir, storeOptions(lambda, false))
	if err != nil {
		return nil, err
	}
	if err := store.Seed(st.Ledger, v); err != nil {
		_ = st.Close()
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return store.Open(dir, storeOptions(lambda, true))
}

// close closes the store, if any, and removes its directory.
func (c *spendChain) close() error {
	if c.st == nil {
		return nil
	}
	err := c.st.Close()
	if rerr := os.RemoveAll(c.dir); err == nil {
		err = rerr
	}
	return err
}

// httpNode is a full node (node.New + nodesvc) served on a loopback port
// with its production defaults, request tracing included.
type httpNode struct {
	url    string
	srv    *http.Server
	done   chan error
	client *http.Client
}

func serveNode(c *spendChain, lambda, clients int) (*httpNode, error) {
	nd, err := node.New(c.led, node.Config{Framework: frameworkConfig(lambda), Keys: c.keys})
	if err != nil {
		return nil, err
	}
	svc := nodesvc.NewServer(nd)
	svc.MaxInFlight, svc.MaxQueue = maxInFlight, maxQueue
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &httpNode{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 5 * time.Second},
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
		}},
	}
	go func() { h.done <- h.srv.Serve(ln) }()
	return h, nil
}

// close stops the server and waits for its serve loop to return.
func (h *httpNode) close() error {
	h.client.CloseIdleConnections()
	err := h.srv.Close()
	<-h.done
	return err
}

// spend posts one spend and checks the committed ring.
func (h *httpNode) spend(_ int64, target chain.TokenID) error {
	body, err := json.Marshal(nodesvc.SpendRequest{Target: target, C: spendReq.C, L: spendReq.L})
	if err != nil {
		return err
	}
	resp, err := h.client.Post(h.url+"/v1/spend", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("spend %v: %s: %s", target, resp.Status, bytes.TrimSpace(msg))
	}
	var out nodesvc.SpendResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("spend %v: decode: %w", target, err)
	}
	return checkRing(target, out.Ring, out.Signed)
}

// checkRing is the per-spend output check: the committed ring is signed and
// contains the spent token.
func checkRing(target chain.TokenID, ring chain.TokenSet, signed bool) error {
	if !signed || !ring.Contains(target) || len(ring) < 2 {
		return errIncorrect{fmt.Sprintf("spend %v committed ring %v (signed=%v)", target, ring, signed)}
	}
	return nil
}

// runSpend measures a spend workload: end-to-end metrics over HTTP, or, with
// o.traced, the per-layer metrics of the traced pass.
func runSpend(w spendWorkload, o options) (*report, error) {
	if o.traced {
		return runSpendTraced(w, o)
	}
	lay := newLayout(w.shape, o.seed)
	rep := &report{}
	var (
		c      *spendChain
		hn     *httpNode
		setups []float64
	)
	teardown := func() error {
		var err error
		if hn != nil {
			err = hn.close()
		}
		if c != nil {
			if cerr := c.close(); err == nil {
				err = cerr
			}
		}
		c, hn = nil, nil
		return err
	}
	defer func() { _ = teardown() }()
	for k := 0; k < setupRuns; k++ {
		if err := teardown(); err != nil {
			return nil, err
		}
		var err error
		d := timed(func() {
			if c, err = buildChain(w, lay, o.seed, filepath.Join(o.work, "data")); err == nil {
				hn, err = serveNode(c, w.shape.lambda, w.load.clients)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	tg, err := newTargets(lay.population(), o.seed)
	if err != nil {
		return nil, err
	}
	runtime.GC() // start every run from the same heap: no garbage from the earlier builds
	res := drive(w.load, o.window, o.seed, tg.next, hn.spend)
	heap := liveHeapMB()
	rep.fromLoad(res)
	rep.check(c.led.NumRS() == res.completed, "ledger holds %d rings but %d spends succeeded", c.led.NumRS(), res.completed)
	anon := checkDM(rep, c.led.View())

	if w.durable {
		if err := hn.close(); err != nil {
			return nil, err
		}
		hn = nil
		restart, err := restartStore(rep, c, w.shape.lambda)
		if err != nil {
			return nil, err
		}
		rep.note("restart_s %.4f (store.Open + node.New over %d ops)", restart.Seconds(), c.led.Epoch())
	}
	if len(res.lateMS) > 0 {
		rep.note("generator lateness p99 %.3f ms over %d arrivals", quantile(res.lateMS, 0.99), len(res.lateMS))
	}
	rep.note("%d measured spends, %d rings on the ledger", len(res.latMS), c.led.NumRS())

	rep.add("setup_s", median(setups), "s")
	rep.add("ops_per_s", res.opsPerSecond(), "1/s")
	rep.add("p50_ms", quantile(res.latMS, 0.5), "ms")
	rep.add("tail_ms", quantile(res.latMS, spendTailQ), "ms")
	rep.add("heap_mb", heap, "MiB")
	rep.add("anon_mean", anon, "tokens")
	return rep, nil
}

// checkDM runs the Dulmage–Mendelsohn attack over the final ledger, gates on
// it tracing no ring, and returns the mean effective anonymity-set size.
func checkDM(rep *report, v *chain.View) float64 {
	dm := graphattack.DM(v.Rings(), nil, v.OriginFunc())
	rep.check(!dm.Degenerate, "DM found no consistent token assignment for the ledger's rings")
	rep.check(dm.Metrics.Traced == 0, "DM traces %d of %d rings", dm.Metrics.Traced, dm.Metrics.Rings)
	return dm.Metrics.AvgAnonymity
}

// restartStore closes the durable chain's store, reopens it and starts a
// node over it, and gates on the reopened ledger matching the closed one.
// It returns the restart time (store.Open + node.New).
func restartStore(rep *report, c *spendChain, lambda int) (time.Duration, error) {
	before, err := store.Digest(c.led.View())
	if err != nil {
		return 0, err
	}
	epoch := c.led.Epoch()
	if err := c.st.Close(); err != nil {
		return 0, err
	}
	var st *store.Store
	d := timed(func() {
		if st, err = store.Open(c.dir, storeOptions(lambda, true)); err == nil {
			_, err = node.New(st.Ledger, node.Config{Framework: frameworkConfig(lambda), Keys: c.keys})
		}
	})
	if st != nil {
		c.st, c.led = st, st.Ledger
	}
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	after, err := store.Digest(st.Ledger.View())
	if err != nil {
		return 0, err
	}
	rep.check(after == before && st.Ledger.Epoch() == epoch,
		"restart recovered epoch %d digest %.12s, closed at epoch %d digest %.12s", st.Ledger.Epoch(), after, epoch, before)
	return d, nil
}

// pipeline is node.Node's spend path (Spend → spendOnce) rebuilt from the
// public functions of the layers it calls, so the benchmark can time each
// call from outside: Framework.GenerateRSContext, ringsig.SignCtx,
// Engine.VerifyCtx, the key-image check and Framework.CommitCtx, with the
// node's stale-epoch retry. Requests carry a program trace exactly as the
// HTTP middleware roots one.
type pipeline struct {
	fw      *itm.Framework
	engine  *ringsig.Engine
	keys    map[chain.TokenID]*ringsig.PrivateKey
	rec     *recorder
	retries atomic.Int64

	mu     sync.Mutex // node.Node.mu: key-image check and commit
	images map[string]chain.RSID
	// The committing operation and its commit span, read by the journal
	// wrapper; set and cleared under mu by the goroutine that commits.
	cur       *opTrace
	curParent int
}

// sigCacheEntries is node.New's transcript-cache size.
const sigCacheEntries = 4096

// maxStaleRetries is node.Spend's bound on stale-epoch retries.
const maxStaleRetries = 8

func newPipeline(c *spendChain, lambda int, rec *recorder) (*pipeline, error) {
	fw, err := itm.New(c.led, frameworkConfig(lambda), nil)
	if err != nil {
		return nil, err
	}
	engine := &ringsig.Engine{Hp: ringsig.NewHpCache(), Seen: ringsig.NewSigCache(sigCacheEntries)}
	pubs := make([]ringsig.Point, 0, len(c.keys))
	for _, sk := range c.keys {
		pubs = append(pubs, sk.Public)
	}
	engine.Hp.Precompute(pubs)
	return &pipeline{fw: fw, engine: engine, keys: c.keys, rec: rec, images: make(map[string]chain.RSID)}, nil
}

func (p *pipeline) spend(id int64, target chain.TokenID) error {
	ctx, tr := trace.New(context.Background(), trace.Default(), "nodesvc.v1_spend")
	ot := p.rec.begin(id, "node.spend")
	ring, err := p.spendRetry(ctx, ot, target)
	ot.finish()
	status := "200"
	if err != nil {
		status = "422"
	}
	tr.Finish(status)
	if err != nil {
		return err
	}
	return checkRing(target, ring, true)
}

func (p *pipeline) spendRetry(ctx context.Context, ot *opTrace, target chain.TokenID) (chain.TokenSet, error) {
	for attempt := 0; ; attempt++ {
		epoch := p.fw.Epoch()
		ring, err := p.spendOnce(ctx, ot, target)
		if err == nil {
			return ring, nil
		}
		staleRetryable := errors.Is(err, itm.ErrConfig) || errors.Is(err, itm.ErrDiversity) || errors.Is(err, itm.ErrLiveness)
		if attempt >= maxStaleRetries || !staleRetryable || p.fw.Epoch() == epoch {
			return nil, err
		}
		p.retries.Add(1)
	}
}

func (p *pipeline) spendOnce(ctx context.Context, ot *opTrace, target chain.TokenID) (chain.TokenSet, error) {
	sp := ot.start(0, "tokenmagic.select")
	sel, err := p.fw.GenerateRSContext(ctx, target, spendReq)
	ot.end(sp)
	if err != nil {
		return nil, err
	}
	msg := node.Message(sel.Tokens)
	ring := make([]ringsig.Point, len(sel.Tokens))
	signer := -1
	for i, tok := range sel.Tokens {
		k := p.keys[tok]
		if k == nil {
			return nil, fmt.Errorf("no key for ring member %v", tok)
		}
		ring[i] = k.Public
		if tok == target {
			signer = i
		}
	}

	sp = ot.start(0, "ringsig.sign")
	sig, err := ringsig.SignCtx(ctx, crand.Reader, p.keys[target], ring, signer, msg)
	ot.end(sp)
	if err != nil {
		return nil, err
	}
	sp = ot.start(0, "ringsig.verify")
	err = p.engine.VerifyCtx(ctx, sig, ring, msg)
	ot.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", node.ErrBadSignature, err)
	}

	sp = ot.start(0, "node.commit")
	defer ot.end(sp)
	p.mu.Lock()
	defer p.mu.Unlock()
	img := string(sig.Image.Bytes())
	if prior, used := p.images[img]; used {
		return nil, fmt.Errorf("%w (by %v)", node.ErrKeyImageUsed, prior)
	}
	cs := ot.start(sp, "tokenmagic.commit")
	p.cur, p.curParent = ot, cs
	id, err := p.fw.CommitCtx(ctx, sel.Tokens, spendReq)
	p.cur = nil
	ot.end(cs)
	if err != nil {
		return nil, err
	}
	p.images[img] = id
	return sel.Tokens, nil
}

// timedJournal wraps the store's journal to time its calls inside the
// commit in progress.
type timedJournal struct {
	chain.Journal
	p *pipeline
}

func (j timedJournal) Append(op chain.Op) error {
	ot := j.p.cur
	if ot == nil {
		return j.Journal.Append(op)
	}
	sp := ot.start(j.p.curParent, "store.append")
	defer ot.end(sp)
	return j.Journal.Append(op)
}

func (j timedJournal) Committed(v *chain.View) {
	ot := j.p.cur
	if ot == nil {
		j.Journal.Committed(v)
		return
	}
	sp := ot.start(j.p.curParent, "store.committed")
	defer ot.end(sp)
	j.Journal.Committed(v)
}

// runSpendTraced replays the workload's arrivals through the pipeline,
// recording a span around every layer call, then probes each layer on the
// final ledger.
func runSpendTraced(w spendWorkload, o options) (*report, error) {
	lay := newLayout(w.shape, o.seed)
	rep := &report{}
	c, err := buildChain(w, lay, o.seed, filepath.Join(o.work, "data"))
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer func() { _ = c.close() }()
	rec := newRecorder()
	p, err := newPipeline(c, w.shape.lambda, rec)
	if err != nil {
		return nil, err
	}
	if c.st != nil {
		c.led.SetJournal(timedJournal{Journal: c.st.Log, p: p})
	}
	tg, err := newTargets(lay.population(), o.seed)
	if err != nil {
		return nil, err
	}
	// The probe's spends come first in the seeded order and are held back
	// from the load, so they are unspent whatever the load got through.
	unspent := tg.take(probeSpends)

	runtime.GC()
	before := counters()
	res := drive(w.load, o.window, o.seed, tg.next, p.spend)
	after := counters()
	rep.fromLoad(res)
	rep.check(c.led.NumRS() == res.completed, "ledger holds %d rings but %d spends succeeded", c.led.NumRS(), res.completed)
	checkDM(rep, c.led.View())
	if w.durable {
		c.led.SetJournal(c.st.Log)
		if _, err := restartStore(rep, c, w.shape.lambda); err != nil {
			return nil, err
		}
	}

	rep.replayMetrics(res, rec.breakdown(), before, after, p.retries.Load())
	if err := probeLayers(rep, probeInput{view: c.led.View(), lambda: w.shape.lambda, unspent: unspent, seed: o.seed, work: o.work}); err != nil {
		return nil, err
	}
	return rep, rec.write(o.traceOut)
}
