// Package tokenmagic implements the paper's TokenMagic framework
// (Section 4, Algorithm 1): the layer that turns the raw DA-MS solvers into
// a deployable mixin-selection pipeline.
//
//   - Batching: the chain is partitioned into disjoint, sequential batches
//     of ≈λ tokens; a token's mixin universe is its own batch, which bounds
//     every related RS set by the batch size.
//   - Candidate randomisation: to stop adversaries inverting the selection
//     algorithm, Algorithm 1 generates a candidate ring for every token in
//     the batch and returns a uniformly random one among those containing
//     the consuming token.
//   - Liveness (η guard): a new ring is admitted only if, with i+1 rings
//     over the batch, the number of provably-consumed tokens μ stays within
//     i+1 − η·(|T| − i − 1), so later users can still find eligible rings.
//   - Step-3 verification: miners re-check the practical configurations
//     (superset-or-disjoint, headroom diversity, closed-form DTRS
//     diversity) before accepting a ring.
package tokenmagic

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tokenmagic/internal/adversary"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/dtrs"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/obs/trace"
	"tokenmagic/internal/selector"
)

// Algorithm selects which DA-MS solver the framework runs.
type Algorithm int

// The available solvers. TM_P and TM_G are the paper's contributions; TM_S
// and TM_R its baselines; TM_B the exact search for small batches.
const (
	Progressive Algorithm = iota // TM_P
	Game                         // TM_G
	Smallest                     // TM_S
	RandomPick                   // TM_R
	BFS                          // TM_B
)

func (a Algorithm) String() string {
	switch a {
	case Progressive:
		return "TM_P"
	case Game:
		return "TM_G"
	case Smallest:
		return "TM_S"
	case RandomPick:
		return "TM_R"
	case BFS:
		return "TM_B"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config tunes the framework.
type Config struct {
	// Lambda is the batch size parameter λ (tokens per batch).
	Lambda int
	// Eta is the liveness parameter η ∈ [0, 1]; 0 disables the guard.
	Eta float64
	// Headroom applies the second practical configuration: solve for
	// (c, ℓ+1) so every DTRS keeps (c, ℓ) and immutability holds for free.
	Headroom bool
	// Algorithm picks the solver.
	Algorithm Algorithm
	// Randomize enables Algorithm 1's per-token candidate sampling. When
	// false, GenerateRS runs exactly one solve for the consuming token —
	// what the paper's timing figures measure.
	Randomize bool
	// Parallelism bounds the candidate-sampling worker pool: 0 uses one
	// worker per available CPU (GOMAXPROCS), 1 forces the sequential
	// executor, n > 1 caps the pool at n goroutines. The output is
	// byte-identical per seed at every setting (see executor.go).
	Parallelism int
	// StopAfter, when positive, stops candidate sampling once the first
	// StopAfter satisfying candidates — in batch-token order — are decided,
	// cancelling in-flight sibling solves. The pick then ranges over that
	// deterministic prefix, so results still replay per seed, but the
	// anonymity set of the pick shrinks from "every satisfying candidate"
	// to "the first StopAfter": a latency/anonymity trade-off. 0 (the
	// default) runs full Algorithm 1.
	StopAfter int
	// Metrics receives the framework's runtime telemetry; nil reports to
	// the process-wide obs.Default() registry.
	Metrics *obs.Registry
}

// DefaultConfig mirrors the paper's deployment defaults: Monero-scale
// batches, headroom on, Progressive solver.
func DefaultConfig() Config {
	return Config{Lambda: 800, Eta: 0.1, Headroom: true, Algorithm: Progressive}
}

// Framework wires a ledger, its batch list and the per-batch liveness
// bookkeeping together.
//
// Concurrency: a Framework is safe for concurrent use, and readers never
// contend with writers. Every mutation (Commit, RefreshBatches,
// UpdateLedger) serialises on writeMu and publishes a fresh immutable
// fwEpoch — ledger view, batch partition, copy-on-write guard state — via
// one atomic store. Read paths (GenerateRS, VerifyRS, Batches) pin the
// current epoch with one atomic load and run entirely against that
// snapshot: the candidate-sampling worker pool, the Step-3 checks and the
// decomposition cache all see a single consistent generation even while
// commits land concurrently.
type Framework struct {
	cfg Config

	// writeMu serialises the mutators. Readers never take it.
	writeMu sync.Mutex
	ledger  *chain.Ledger
	epoch   atomic.Pointer[fwEpoch]

	// rng only ever serves one purpose now: drawing the per-request seed
	// that DeriveSeed splits into candidate streams. rngMu serialises those
	// draws; no solver touches rng directly.
	rngMu sync.Mutex
	rng   *rand.Rand

	metrics fwMetrics
}

// fwEpoch is one immutable generation of the framework's derived state.
// seq increases by one per publish; readers pin a whole generation with a
// single atomic load, so a pinned epoch keeps working — against its own
// ledger view, batches and guards — no matter how many writes land after.
type fwEpoch struct {
	seq     uint64
	view    *chain.View
	batches *chain.BatchList
	origin  func(chain.TokenID) chain.TxID
	// guards is copy-on-write: Commit clones the map and the one mutated
	// entry, so a published epoch's guard state never changes.
	guards map[int]*adversary.NeighborSets
	// decomp is shared across Commit-successive epochs (entries
	// self-invalidate on ring count) and replaced wholesale when batch
	// boundaries move (RefreshBatches, UpdateLedger).
	decomp *decompTable
}

// guard returns the batch's liveness guard. The map is pre-populated for
// every batch index when the epoch is built; the fallback only covers an
// index the batch list does not know (defensive — BatchOf would have failed
// first) and does not write the map, so epochs stay immutable.
func (e *fwEpoch) guard(batch int) *adversary.NeighborSets {
	if g := e.guards[batch]; g != nil {
		return g
	}
	return adversary.NewNeighborSets()
}

// decompTable holds the per-batch decomposition cache of one batch-boundary
// generation. The mutex guards only the map of entries; hits read an
// entry's atomic snapshot, and a stale entry refreshes under its own mutex
// (single-flight per batch), so concurrent sampleCandidates workers never
// serialise globally on a recompute.
type decompTable struct {
	mu sync.RWMutex
	m  map[int]*decompCache
}

func newDecompTable() *decompTable {
	return &decompTable{m: make(map[int]*decompCache)}
}

// fwMetrics holds the registry handles the framework reports to. They are
// the only record of its telemetry: ReadStats derives Stats from them.
type fwMetrics struct {
	solveCount    *obs.Counter
	solveFailures *obs.Counter
	solveLatency  *obs.Histogram
	ringSize      *obs.Histogram
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	admits        *obs.Counter
	rejLiveness   *obs.Counter
	rejConfig     *obs.Counter
	rejDiversity  *obs.Counter
	rejOther      *obs.Counter
	epochGauge    *obs.Gauge
	epochAdvance  *obs.Histogram
}

// Registry names of the framework's counters, shared by newFWMetrics (the
// write side) and ReadStats (the read side).
const (
	metricCacheHits    = "framework.decomp.cache_hits"
	metricCacheMisses  = "framework.decomp.cache_misses"
	metricAdmits       = "framework.verify.admits"
	metricRejLiveness  = "framework.verify.reject.liveness"
	metricRejConfig    = "framework.verify.reject.config"
	metricRejDiversity = "framework.verify.reject.diversity"
	metricRejOther     = "framework.verify.reject.other"
)

func solveMetric(algo Algorithm, suffix string) string {
	return "framework.solve." + algo.String() + "." + suffix
}

func newFWMetrics(reg *obs.Registry, algo Algorithm) fwMetrics {
	return fwMetrics{
		solveCount:    reg.Counter(solveMetric(algo, "count")),
		solveFailures: reg.Counter(solveMetric(algo, "failures")),
		solveLatency:  reg.Histogram(solveMetric(algo, "latency_us"), obs.LatencyBucketsUS),
		ringSize:      reg.Histogram("framework.ring_size", obs.SizeBuckets),
		cacheHits:     reg.Counter(metricCacheHits),
		cacheMisses:   reg.Counter(metricCacheMisses),
		admits:        reg.Counter(metricAdmits),
		rejLiveness:   reg.Counter(metricRejLiveness),
		rejConfig:     reg.Counter(metricRejConfig),
		rejDiversity:  reg.Counter(metricRejDiversity),
		rejOther:      reg.Counter(metricRejOther),
		epochGauge:    reg.Gauge("framework.epoch"),
		epochAdvance:  reg.Histogram("framework.epoch.advance_us", obs.LatencyBucketsUS),
	}
}

// Stats is a point-in-time snapshot of the framework counters in one obs
// registry (see ReadStats): it covers every framework reporting there, so
// give a framework a private registry (Config.Metrics) to read it alone.
type Stats struct {
	// Solves counts solver dispatches; SolveFailures those that returned an
	// error (ErrNoEligible included).
	Solves, SolveFailures int64
	// CacheHits/CacheMisses cover the per-batch decomposition cache.
	CacheHits, CacheMisses int64
	// VerifyAdmits counts rings that passed the Step-3 checks; the Reject*
	// fields classify the failures (η guard, practical configuration,
	// diversity, everything else).
	VerifyAdmits                                               int64
	RejectLiveness, RejectConfig, RejectDiversity, RejectOther int64
}

// Rejects is the total number of Step-3 rejections.
func (s Stats) Rejects() int64 {
	return s.RejectLiveness + s.RejectConfig + s.RejectDiversity + s.RejectOther
}

// CacheHitRate returns the decomposition-cache hit fraction in [0, 1]
// (0 when the cache was never consulted).
func (s Stats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// ReadStats derives Stats from the framework counters in reg, summed over
// every algorithm. Safe to call concurrently with spends. Counters are
// looked up get-or-create, so reading a fresh registry registers them at 0.
//
// Each algorithm's failure counter is loaded before its count. The write
// side bumps the count first (solve increments .count, then .failures on
// error), so SolveFailures ≤ Solves holds even when spends land mid-read.
func ReadStats(reg *obs.Registry) Stats {
	var s Stats
	for a := Progressive; a <= BFS; a++ {
		s.SolveFailures += reg.Counter(solveMetric(a, "failures")).Value()
		s.Solves += reg.Counter(solveMetric(a, "count")).Value()
	}
	s.CacheHits = reg.Counter(metricCacheHits).Value()
	s.CacheMisses = reg.Counter(metricCacheMisses).Value()
	s.VerifyAdmits = reg.Counter(metricAdmits).Value()
	s.RejectLiveness = reg.Counter(metricRejLiveness).Value()
	s.RejectConfig = reg.Counter(metricRejConfig).Value()
	s.RejectDiversity = reg.Counter(metricRejDiversity).Value()
	s.RejectOther = reg.Counter(metricRejOther).Value()
	return s
}

// decompCache is one batch's cache slot: an immutable snapshot swapped
// atomically, plus a refresh mutex that single-flights recomputation.
type decompCache struct {
	refreshMu sync.Mutex
	snap      atomic.Pointer[decompSnapshot]
}

// decompSnapshot is an immutable decomposition of one batch at one ledger
// version. Readers share it without locking.
type decompSnapshot struct {
	ringCount int // ledger.NumRS() when filled
	rings     []chain.RingRecord
	supers    []selector.Super
	fresh     chain.TokenSet
}

// Errors surfaced by the framework.
var (
	ErrLiveness   = errors.New("tokenmagic: admitting this ring would starve future users (η guard)")
	ErrConfig     = errors.New("tokenmagic: ring violates the practical configuration")
	ErrDiversity  = errors.New("tokenmagic: ring violates its declared diversity requirement")
	ErrSpentBatch = errors.New("tokenmagic: no candidate ring available for this token")
)

// cryptoSeed draws a 64-bit seed from crypto/rand. Candidate sampling is
// anonymity-critical (a predictable pick order lets an adversary invert
// Algorithm 1), so an unreadable entropy source is fatal, not a warning.
func cryptoSeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic("tokenmagic: crypto/rand unavailable: " + err.Error())
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// NewSamplingRand returns the framework's default candidate-sampling
// generator: math/rand sequenced for speed, seeded from crypto/rand so no
// two processes share a pick order. Pass a fixed-seed *rand.Rand to New
// instead when a run must replay (sim, tests, benchmarks) — that split is
// the repo's randomness policy (see DESIGN.md).
func NewSamplingRand() *rand.Rand {
	//lint:ignore cryptorand the one sanctioned construction site: the seed comes from crypto/rand
	return rand.New(rand.NewSource(cryptoSeed()))
}

// New builds a framework over the ledger. rng drives candidate sampling
// (cfg.Randomize) and the TM_R baseline; nil selects a crypto-seeded
// generator (NewSamplingRand) when the configuration needs one, so
// deterministic sequences only ever come from an explicit caller choice.
func New(ledger *chain.Ledger, cfg Config, rng *rand.Rand) (*Framework, error) {
	if cfg.Eta < 0 || cfg.Eta > 1 {
		return nil, fmt.Errorf("tokenmagic: η must be in [0,1], got %v", cfg.Eta)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	if rng == nil && (cfg.Randomize || cfg.Algorithm == RandomPick) {
		rng = NewSamplingRand()
	}
	f := &Framework{
		cfg:     cfg,
		ledger:  ledger,
		rng:     rng,
		metrics: newFWMetrics(reg, cfg.Algorithm),
	}
	if err := f.rebuildEpoch(); err != nil {
		return nil, err
	}
	return f, nil
}

// rebuildEpoch derives batches, origin and guard state from the ledger's
// current view and publishes them as a fresh epoch. Callers hold writeMu
// (or own the framework exclusively, as New does).
func (f *Framework) rebuildEpoch() error {
	v := f.ledger.View()
	batches, err := chain.BuildBatchesView(v, f.cfg.Lambda)
	if err != nil {
		return err
	}
	guards := make(map[int]*adversary.NeighborSets, batches.Len())
	for i := 0; i < batches.Len(); i++ {
		guards[i] = adversary.NewNeighborSets()
	}
	for _, r := range v.Rings() {
		if b, berr := batches.BatchOf(r.Tokens[0]); berr == nil {
			guards[b.Index].Append(r)
		}
	}
	f.publishEpoch(&fwEpoch{
		view:    v,
		batches: batches,
		origin:  v.OriginFunc(),
		guards:  guards,
		// Batch boundaries may have moved; the ring-count keyed
		// decomposition cache cannot tell, so start a fresh table.
		decomp: newDecompTable(),
	})
	return nil
}

// publishEpoch stamps the next sequence number onto e and makes it the
// current generation. Callers hold writeMu.
func (f *Framework) publishEpoch(e *fwEpoch) {
	if old := f.epoch.Load(); old != nil {
		e.seq = old.seq + 1
	}
	f.epoch.Store(e)
	f.metrics.epochGauge.Set(int64(e.seq))
}

// Epoch returns the sequence number of the framework's current published
// generation; it advances by one on every Commit, RefreshBatches and
// UpdateLedger. The node's spend pipeline compares epochs to tell a
// genuinely invalid ring from one that verified against stale state.
func (f *Framework) Epoch() uint64 { return f.epoch.Load().seq }

// currentEpoch pins the published epoch for a reader, first catching up if
// the underlying ledger moved past it — which only happens when something
// else appends to the shared ledger directly (another framework over the
// same chain, a miner, a test). Generating or verifying against a
// known-stale view would produce rings doomed to fail admission, so
// staleness is worth a writeMu round trip; in the common single-writer
// deployment the view is always current and this is one atomic load.
func (f *Framework) currentEpoch() (*fwEpoch, error) {
	e := f.epoch.Load()
	if e.view.Epoch() == f.ledger.Epoch() {
		return e, nil
	}
	f.writeMu.Lock()
	defer f.writeMu.Unlock()
	if e = f.epoch.Load(); e.view.Epoch() == f.ledger.Epoch() {
		return e, nil // another reader already caught up
	}
	if err := f.rebuildEpoch(); err != nil {
		return nil, err
	}
	return f.epoch.Load(), nil
}

// RefreshBatches rebuilds the batch partition and guard state from the
// current ledger, picking up tokens appended since the framework was built
// (mirrors batchsvc.Server.RefreshBatches). On error the framework is left
// unchanged. In-flight readers keep their pinned epoch and are unaffected.
func (f *Framework) RefreshBatches() error {
	f.writeMu.Lock()
	defer f.writeMu.Unlock()
	start := time.Now()
	if err := f.rebuildEpoch(); err != nil {
		return err
	}
	f.metrics.epochAdvance.ObserveSince(start)
	return nil
}

// UpdateLedger runs fn with exclusive write access to the ledger (e.g.
// token growth) and then publishes a fresh epoch over the mutated state.
// Concurrent spends keep reading their pinned pre-mutation epoch; they
// never observe the mutation half-applied. If fn errors the epoch is not
// advanced and the error returned; fn must leave the ledger consistent on
// error.
func (f *Framework) UpdateLedger(fn func(*chain.Ledger) error) error {
	f.writeMu.Lock()
	defer f.writeMu.Unlock()
	start := time.Now()
	if err := fn(f.ledger); err != nil {
		return err
	}
	if err := f.rebuildEpoch(); err != nil {
		return err
	}
	f.metrics.epochAdvance.ObserveSince(start)
	return nil
}

// Batches exposes the current epoch's batch list. The returned list is an
// immutable snapshot; writers publish a new one rather than mutating.
func (f *Framework) Batches() *chain.BatchList {
	return f.epoch.Load().batches
}

// effectiveReq applies the headroom configuration.
func (f *Framework) effectiveReq(req diversity.Requirement) diversity.Requirement {
	if f.cfg.Headroom {
		return req.WithHeadroom()
	}
	return req
}

// problemFor assembles the modular problem for one consuming token against
// one pinned epoch, using the cached per-batch decomposition when the
// epoch's view matches the ring count it was computed at.
func (f *Framework) problemFor(e *fwEpoch, target chain.TokenID, req diversity.Requirement) (*selector.Problem, chain.TokenSet, error) {
	b, err := e.batches.BatchOf(target)
	if err != nil {
		return nil, nil, err
	}
	dc := f.decompFor(e, b)
	p, err := selector.NewProblem(target, dc.supers, dc.fresh, e.origin, f.effectiveReq(req))
	if err != nil {
		return nil, nil, err
	}
	return p, b.Tokens, nil
}

// decompFor returns the batch's decomposition at the pinned epoch,
// refreshing the cache entry if it was computed at a different ring count.
// Cache hits take only the table's read lock plus an atomic load; a miss
// recomputes under the batch's own refresh mutex, so concurrent workers on
// the same stale batch wait for one recompute (single-flight) while other
// batches proceed. The table is shared across Commit-successive epochs —
// safe because the ring list is append-only, so equal ring counts imply
// identical rings.
func (f *Framework) decompFor(e *fwEpoch, b chain.Batch) *decompSnapshot {
	t := e.decomp
	t.mu.RLock()
	dc := t.m[b.Index]
	t.mu.RUnlock()
	if dc == nil {
		t.mu.Lock()
		if dc = t.m[b.Index]; dc == nil {
			dc = &decompCache{}
			t.m[b.Index] = dc
		}
		t.mu.Unlock()
	}
	cur := e.view.NumRS()
	if s := dc.snap.Load(); s != nil && s.ringCount == cur {
		f.metrics.cacheHits.Inc()
		return s
	}
	dc.refreshMu.Lock()
	defer dc.refreshMu.Unlock()
	// Re-check: another worker may have refreshed to this epoch's version
	// while we waited.
	if s := dc.snap.Load(); s != nil && s.ringCount == cur {
		f.metrics.cacheHits.Inc()
		return s
	}
	f.metrics.cacheMisses.Inc()
	rings := e.view.RingsOver(b.Tokens)
	supers, fresh := selector.Decompose(rings, b.Tokens)
	s := &decompSnapshot{ringCount: cur, rings: rings, supers: supers, fresh: fresh}
	dc.snap.Store(s)
	return s
}

// solve dispatches to the configured solver and is the one instrument of a
// solve (candidate sampling makes this the hot path: one call per batch
// token per spend). A "solve" span annotated with the solver and ring size,
// the per-algorithm count and failures, and the latency histogram all cover
// the same interval; the solvers themselves record nothing. Counter order
// matters to ReadStats: the count is bumped before the failure counter so
// snapshots never see SolveFailures > Solves. rng is the solve's private
// derived stream; only TM_R consumes it.
func (f *Framework) solve(ctx context.Context, e *fwEpoch, p *selector.Problem, universe chain.TokenSet, target chain.TokenID, req diversity.Requirement, rng *rand.Rand) (selector.Result, error) {
	sp := trace.StartChild(ctx, "solve")
	sp.Annotate("solver", f.cfg.Algorithm.String())
	start := time.Now()
	res, err := f.dispatch(ctx, e, p, universe, target, req, rng)
	f.metrics.solveCount.Inc()
	f.metrics.solveLatency.ObserveSince(start)
	if err != nil {
		f.metrics.solveFailures.Inc()
	}
	sp.AnnotateInt("ring_size", int64(res.Size()))
	sp.End()
	return res, err
}

func (f *Framework) dispatch(ctx context.Context, e *fwEpoch, p *selector.Problem, universe chain.TokenSet, target chain.TokenID, req diversity.Requirement, rng *rand.Rand) (selector.Result, error) {
	switch f.cfg.Algorithm {
	case Progressive:
		return selector.ProgressiveCtx(ctx, p)
	case Game:
		return selector.GameCtx(ctx, p)
	case Smallest:
		return selector.SmallestCtx(ctx, p)
	case RandomPick:
		if rng == nil {
			return selector.Result{}, errors.New("tokenmagic: TM_R requires an rng")
		}
		return selector.RandomCtx(ctx, p, rng)
	case BFS:
		return selector.BFSCtx(ctx, &selector.ExactProblem{
			Target:   target,
			Universe: universe,
			Rings:    e.view.RingsOver(universe),
			Origin:   e.origin,
			// The exact solver enforces DTRS diversity itself, so it must
			// see the same headroom-adjusted requirement the Step-3 check
			// verifies — the heuristic solvers get it via problemFor.
			Req: f.effectiveReq(req),
		})
	default:
		return selector.Result{}, fmt.Errorf("tokenmagic: unknown algorithm %v", f.cfg.Algorithm)
	}
}

// drawSeed pulls the next request seed off the framework's sampling rng.
// This is the rng's only consumer: one draw per GenerateRS, serialised by
// rngMu, so the seed sequence is a pure function of the rng's own seed no
// matter how many goroutines spend concurrently.
func (f *Framework) drawSeed() int64 {
	f.rngMu.Lock()
	defer f.rngMu.Unlock()
	return f.rng.Int63()
}

// GenerateRS produces an eligible ring for consuming target under req
// (Algorithm 1). With cfg.Randomize set, it generates a candidate per batch
// token and picks uniformly among those containing target; otherwise it runs
// a single solve.
func (f *Framework) GenerateRS(target chain.TokenID, req diversity.Requirement) (selector.Result, error) {
	return f.GenerateRSContext(context.Background(), target, req)
}

// GenerateRSContext is GenerateRS with cooperative cancellation: when ctx
// dies, in-flight candidate solves are abandoned and the context's error is
// returned. Safe for concurrent use.
func (f *Framework) GenerateRSContext(ctx context.Context, target chain.TokenID, req diversity.Requirement) (selector.Result, error) {
	needRand := f.cfg.Randomize || f.cfg.Algorithm == RandomPick
	if needRand && f.rng == nil {
		return selector.Result{}, errors.New("tokenmagic: candidate sampling requires an rng")
	}
	var seed int64
	if f.rng != nil {
		seed = f.drawSeed()
	}
	return f.GenerateRSSeeded(ctx, target, req, seed)
}

// GenerateRSSeeded is the replayable core of GenerateRS: the whole request —
// every candidate solve's rng stream and the final uniform pick — is derived
// from seed via DeriveSeed, so the same (ledger, config, seed) triple yields
// the same ring at any Parallelism setting. GenerateRSContext draws seeds
// from the framework rng; simulation replay (internal/sim) and the
// equivalence test suites supply their own.
func (f *Framework) GenerateRSSeeded(ctx context.Context, target chain.TokenID, req diversity.Requirement, seed int64) (selector.Result, error) {
	e, err := f.currentEpoch()
	if err != nil {
		return selector.Result{}, err
	}
	res, err := f.generateRSSeeded(ctx, e, target, req, seed)
	if err == nil {
		f.metrics.ringSize.Observe(int64(res.Size()))
	}
	return res, err
}

// generateRSSeeded runs lock-free against the pinned epoch; the sampling
// worker pool is joined before it returns, and every solver access reads
// the epoch's immutable view, so concurrent commits can never expose a
// half-applied mutation to the request.
func (f *Framework) generateRSSeeded(ctx context.Context, e *fwEpoch, target chain.TokenID, req diversity.Requirement, seed int64) (selector.Result, error) {
	if err := req.Validate(); err != nil {
		return selector.Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return selector.Result{}, err
	}
	if !f.cfg.Randomize {
		p, universe, err := f.problemFor(e, target, req)
		if err != nil {
			return selector.Result{}, err
		}
		var rng *rand.Rand
		if f.cfg.Algorithm == RandomPick {
			rng = streamRand(seed, soloStream)
		}
		return f.solve(ctx, e, p, universe, target, req, rng)
	}
	universe, err := e.batches.Universe(target)
	if err != nil {
		return selector.Result{}, err
	}
	candidates, err := f.sampleCandidatesTraced(ctx, e, universe, target, req, seed)
	if err != nil {
		return selector.Result{}, err
	}
	if len(candidates) == 0 {
		return selector.Result{}, ErrSpentBatch
	}
	// Algorithm 1 line 7: uniform pick, on its own derived stream so the
	// pick is independent of how many candidates each solver drew.
	return candidates[streamRand(seed, pickStream).Intn(len(candidates))], nil
}

// Commit validates a generated ring and appends it to the ledger, updating
// the batch's liveness state. It returns the new RSID. Verification and
// append happen under one exclusive hold, so two racing Commits cannot both
// verify against the old ledger and then both land (check-then-act).
func (f *Framework) Commit(tokens chain.TokenSet, req diversity.Requirement) (chain.RSID, error) {
	return f.CommitCtx(context.Background(), tokens, req)
}

// CommitCtx is Commit with the request's trace threaded through: the whole
// exclusive section lands in a "commit" span, with the embedded Step-3 check
// as a child "verify" span. ctx carries only the trace — commit itself never
// aborts on cancellation (a half-applied append would corrupt the guard
// state).
func (f *Framework) CommitCtx(ctx context.Context, tokens chain.TokenSet, req diversity.Requirement) (chain.RSID, error) {
	ctx, sp := trace.StartSpan(ctx, "commit")
	defer sp.End()
	sp.AnnotateInt("ring_size", int64(len(tokens)))
	f.writeMu.Lock()
	defer f.writeMu.Unlock()
	start := time.Now()
	e := f.epoch.Load() // writers serialise, so this IS the latest state
	if e.view.Epoch() != f.ledger.Epoch() {
		// The ledger moved outside the framework (another writer appended
		// to it directly). Resync so the commit verifies against the live
		// chain, not the stale pinned view.
		if err := f.rebuildEpoch(); err != nil {
			return -1, err
		}
		e = f.epoch.Load()
	}
	if err := f.verifyAndCount(ctx, e, tokens, req); err != nil {
		return -1, err
	}
	id, err := f.ledger.AppendRS(tokens, req.C, req.L)
	if err != nil {
		return -1, err
	}
	nv := f.ledger.View()
	rec, _ := nv.RS(id)
	// Copy-on-write: clone the guard map and the one entry this ring lands
	// in, leaving the previous epoch's guard state untouched for its
	// pinned readers.
	guards := e.guards
	if b, berr := e.batches.BatchOf(tokens[0]); berr == nil {
		guards = make(map[int]*adversary.NeighborSets, len(e.guards))
		for k, v := range e.guards {
			guards[k] = v
		}
		g := adversary.NewNeighborSets()
		if old := e.guards[b.Index]; old != nil {
			g = old.Clone()
		}
		g.Append(rec)
		guards[b.Index] = g
	}
	f.publishEpoch(&fwEpoch{
		view:    nv,
		batches: e.batches, // a commit appends a ring; boundaries are unchanged
		origin:  e.origin,  // and so is the token population
		guards:  guards,
		decomp:  e.decomp, // entries self-invalidate on ring count
	})
	f.metrics.epochAdvance.ObserveSince(start)
	return id, nil
}

// VerifyRS performs the Step-3 miner checks on a proposed ring: the
// practical configuration (superset-or-disjoint with every existing ring,
// all tokens in one batch), the declared diversity with headroom, the
// closed-form DTRS diversity, and the η liveness guard. Safe for concurrent
// use; it shares mu's read side with GenerateRS.
func (f *Framework) VerifyRS(tokens chain.TokenSet, req diversity.Requirement) error {
	return f.VerifyRSCtx(context.Background(), tokens, req)
}

// VerifyRSCtx is VerifyRS with the request's trace threaded through; the
// check lands in a "verify" span annotated with the verdict.
func (f *Framework) VerifyRSCtx(ctx context.Context, tokens chain.TokenSet, req diversity.Requirement) error {
	e, err := f.currentEpoch()
	if err != nil {
		return err
	}
	return f.verifyAndCount(ctx, e, tokens, req)
}

// verifyAndCount classifies verifyRS's outcome into the admit/reject
// counters and a "verify" span of the request's trace (verdict "admit", or
// the reject class — "liveness" is the η guard). The check runs entirely
// against the pinned epoch e.
func (f *Framework) verifyAndCount(ctx context.Context, e *fwEpoch, tokens chain.TokenSet, req diversity.Requirement) error {
	sp := trace.StartChild(ctx, "verify")
	defer sp.End()
	err := f.verifyRS(e, tokens, req)
	switch {
	case err == nil:
		sp.Annotate("verdict", "admit")
		f.metrics.admits.Inc()
	case errors.Is(err, ErrLiveness):
		sp.Annotate("verdict", "liveness")
		f.metrics.rejLiveness.Inc()
	case errors.Is(err, ErrConfig):
		sp.Annotate("verdict", "config")
		f.metrics.rejConfig.Inc()
	case errors.Is(err, ErrDiversity):
		sp.Annotate("verdict", "diversity")
		f.metrics.rejDiversity.Inc()
	default:
		sp.Annotate("verdict", "other")
		f.metrics.rejOther.Inc()
	}
	return err
}

func (f *Framework) verifyRS(e *fwEpoch, tokens chain.TokenSet, req diversity.Requirement) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if len(tokens) == 0 {
		return chain.ErrEmptyRing
	}
	b, err := e.batches.BatchOf(tokens[0])
	if err != nil {
		return err
	}
	if !tokens.SubsetOf(b.Tokens) {
		return fmt.Errorf("%w: ring spans multiple batches", ErrConfig)
	}

	rings := e.view.RingsOver(b.Tokens)
	subsetCount := 1 // the new ring itself
	for _, r := range rings {
		switch {
		case r.Tokens.SubsetOf(tokens):
			subsetCount++
		case r.Tokens.Disjoint(tokens):
		default:
			return fmt.Errorf("%w: ring neither contains nor avoids %v", ErrConfig, r.ID)
		}
	}

	eff := f.effectiveReq(req)
	if !diversity.SatisfiesTokens(tokens, e.origin, eff) {
		return fmt.Errorf("%w: HT multiset fails %v", ErrDiversity, eff)
	}
	// Closed-form DTRS check (Theorem 6.1): with headroom this is implied
	// (Theorem 6.4) but cheap enough that miners verify it regardless.
	if !dtrs.AllSatisfyClosedForm(tokens, subsetCount, e.origin, req) {
		return fmt.Errorf("%w: a DTRS fails %v", ErrDiversity, req)
	}

	if f.cfg.Eta > 0 {
		g := e.guard(b.Index)
		effSize := len(b.Tokens)
		if effSize < f.cfg.Lambda {
			// Trailing under-full batch: the paper scores |T| as λ+λ'−1
			// because more tokens will land in the batch before it closes.
			effSize = f.cfg.Lambda + effSize - 1
		}
		i := g.RingCount() + 1
		mu := g.WouldConsume(chain.RingRecord{ID: chain.RSID(e.view.NumRS()), Tokens: tokens})
		// Section 4: the number of inferable consumed tokens must not
		// exceed i − η·(|T| − i). The bound is clamped at zero so early
		// rings that prove nothing (μ = 0) are always admissible.
		bound := float64(i) - f.cfg.Eta*float64(effSize-i)
		if bound < 0 {
			bound = 0
		}
		if float64(mu) > bound {
			return fmt.Errorf("%w: i=%d μ=%d |T|=%d η=%v", ErrLiveness, i, mu, effSize, f.cfg.Eta)
		}
	}
	return nil
}

// RelaxationPolicy controls GenerateRSRelaxed's retry ladder. Section 4:
// when no eligible ring exists, "users can relax the diversity requirement
// by increasing c or decreasing ℓ" and retry.
type RelaxationPolicy struct {
	// CStep is added to c on each relaxation step (0 disables c steps).
	CStep float64
	// LStep is subtracted from ℓ on each relaxation step (0 disables).
	LStep int
	// MaxSteps bounds the ladder; 0 means 8.
	MaxSteps int
	// MinL is the floor for ℓ (default 1).
	MinL int
}

func (p RelaxationPolicy) withDefaults() RelaxationPolicy {
	if p.MaxSteps == 0 {
		p.MaxSteps = 8
	}
	if p.MinL < 1 {
		p.MinL = 1
	}
	return p
}

// GenerateRSRelaxed tries the requested requirement and, on ErrNoEligible,
// walks the relaxation ladder until a ring exists or the ladder is
// exhausted. It returns the result together with the requirement that was
// actually achieved, which the caller should declare when committing.
func (f *Framework) GenerateRSRelaxed(target chain.TokenID, req diversity.Requirement, policy RelaxationPolicy) (selector.Result, diversity.Requirement, error) {
	policy = policy.withDefaults()
	cur := req
	var lastErr error
	for step := 0; step <= policy.MaxSteps; step++ {
		res, err := f.GenerateRS(target, cur)
		if err == nil {
			return res, cur, nil
		}
		if !errors.Is(err, selector.ErrNoEligible) {
			return selector.Result{}, cur, err
		}
		lastErr = err
		next := cur
		next.C += policy.CStep
		if next.L-policy.LStep >= policy.MinL {
			next.L -= policy.LStep
		}
		if next == cur {
			break // policy cannot relax further
		}
		cur = next
	}
	return selector.Result{}, cur, fmt.Errorf("tokenmagic: relaxation ladder exhausted: %w", lastErr)
}

// GenerateAndCommit is the common happy path: generate, then commit.
func (f *Framework) GenerateAndCommit(target chain.TokenID, req diversity.Requirement) (chain.RSID, selector.Result, error) {
	res, err := f.GenerateRS(target, req)
	if err != nil {
		return -1, selector.Result{}, err
	}
	id, err := f.Commit(res.Tokens, req)
	if err != nil {
		return -1, res, err
	}
	return id, res, nil
}
