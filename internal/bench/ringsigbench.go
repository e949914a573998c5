package bench

// Ring-signature benchmarks behind BENCH_ringsig.json: sign and verify
// ns/op of the one sign/verify path (internal/ringsig's ring walk) over
// ring size, and batch verification over ring size × batch size at
// GOMAXPROCS workers. Before timing anything the harness checks the
// workload itself: every signature must verify on every arm's engine
// configuration, and every tampered variant must be rejected, so a fast arm
// can never come from accepting or rejecting the wrong thing. Equivalence
// with the stock-curve reference lives in internal/ringsig's tests and CI
// fuzz smoke, not here.
//
// The arms are labeled by what they amortise:
//
//   - sign, verify:                 a cache-less Engine, cold Hp
//   - sign_warm_hp, verify_warm_hp: an Engine whose Hp memo was precomputed
//     from the key pool (a node's memo, which fills on first use, once its
//     rings have used every key)
//   - sign_verified_warm_hp:        SignVerifiedCtx on that Engine, the
//     spend path's sign with its self-verification overlapped; compare it
//     with sign_warm_hp + verify_warm_hp, the same work back to back
//   - batch:                        VerifyBatch with a per-batch Hp memo and
//     no transcript cache
//   - batch_warm_hp:                VerifyBatch against the precomputed memo
//   - cached_block_validation:      VerifyBatch with the transcript cache
//     warmed by admission-time verification — the paper's Step-4 workload,
//     where a miner re-validates at block time what it already verified at
//     submit time
//
// Batch arms run on GOMAXPROCS workers, so their rates scale with
// min(gomaxprocs, num_cpu), both recorded in the report; CI regenerates
// the artefact on its own runners. The arms of one sweep point are timed
// round-robin, ringsigBenchRuns times each, and every point reports the
// median run with the fastest and slowest, so a drift of the machine during
// the sweep reaches every arm of a point alike.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"runtime"
	"slices"
	"testing"

	"tokenmagic/internal/ringsig"
)

// RingsigBenchPoint is one measured arm: the median of its runs, with the
// fastest and slowest run.
type RingsigBenchPoint struct {
	Arm        string  `json:"arm"`
	Ring       int     `json:"ring"`
	Batch      int     `json:"batch,omitempty"`
	NsPerOp    float64 `json:"ns_per_op"`
	NsPerOpMin float64 `json:"ns_per_op_min"`
	NsPerOpMax float64 `json:"ns_per_op_max"`
	SigsPerSec float64 `json:"sigs_per_sec"`
}

// RingsigBenchReport is the BENCH_ringsig.json payload. Commit names the
// checkout it was measured at (the caller fills it in).
type RingsigBenchReport struct {
	GeneratedBy     string              `json:"generated_by"`
	Commit          string              `json:"commit"`
	GOOS            string              `json:"goos"`
	GOARCH          string              `json:"goarch"`
	GOMAXPROCS      int                 `json:"gomaxprocs"`
	NumCPU          int                 `json:"num_cpu"`
	Runs            int                 `json:"runs"`
	Note            string              `json:"note"`
	WorkloadChecked bool                `json:"workload_checked"`
	Single          []RingsigBenchPoint `json:"single"`
	BatchArms       []RingsigBenchPoint `json:"batch"`
}

// Sweep grids. The headline point is ring 16 × batch 64.
var (
	ringsigBenchRings   = []int{8, 16}
	ringsigBenchBatches = []int{16, 64}
)

// ringsigBenchRuns is how many times each arm is timed.
const ringsigBenchRuns = 3

// benchRand is a deterministic byte stream (sha256 counter mode), so every
// run signs the same workload with the same nonces.
type benchRand struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func newBenchRand(seed string) *benchRand {
	return &benchRand{seed: sha256.Sum256([]byte(seed))}
}

func (r *benchRand) Read(p []byte) (int, error) {
	for len(r.buf) < len(p) {
		var block [40]byte
		copy(block[:32], r.seed[:])
		binary.LittleEndian.PutUint64(block[32:], r.ctr)
		r.ctr++
		sum := sha256.Sum256(block[:])
		r.buf = append(r.buf, sum[:]...)
	}
	copy(p, r.buf[:len(p)])
	r.buf = r.buf[len(p):]
	return len(p), nil
}

// ringsigWorkload is a batch of signed rings drawn from a shared key pool —
// rings overlap, so the Hp memo has repeats to amortise, as mixin rings over
// one ledger do.
type ringsigWorkload struct {
	pool []*ringsig.PrivateKey
	pubs []ringsig.Point
	reqs []ringsig.VerifyRequest
}

func buildRingsigWorkload(ringSize, batch int, seed string) (*ringsigWorkload, error) {
	rng := newBenchRand(seed)
	poolSize := 4 * ringSize
	w := &ringsigWorkload{}
	for i := 0; i < poolSize; i++ {
		k, err := ringsig.GenerateKey(rng)
		if err != nil {
			return nil, err
		}
		w.pool = append(w.pool, k)
		w.pubs = append(w.pubs, k.Public)
	}
	for b := 0; b < batch; b++ {
		// Rotate through the pool so consecutive rings share most members.
		ring := make([]ringsig.Point, ringSize)
		signerIdx := b % ringSize
		var signer *ringsig.PrivateKey
		for i := 0; i < ringSize; i++ {
			k := w.pool[(b+i)%poolSize]
			ring[i] = k.Public
			if i == signerIdx {
				signer = k
			}
		}
		msg := []byte(fmt.Sprintf("bench ring %d of %s", b, seed))
		sig, err := ringsig.Sign(rng, signer, ring, signerIdx, msg)
		if err != nil {
			return nil, err
		}
		w.reqs = append(w.reqs, ringsig.VerifyRequest{Sig: sig, Ring: ring, Msg: msg})
	}
	return w, nil
}

// ringsigEngines returns one engine per configuration the arms verify
// with: no caches, a memo precomputed from the key pool, and that memo plus
// a transcript cache.
func ringsigEngines(w *ringsigWorkload) []*ringsig.Engine {
	warm := ringsig.NewHpCache()
	warm.Precompute(w.pubs)
	return []*ringsig.Engine{
		{},
		{Hp: warm},
		{Hp: warm, Seen: ringsig.NewSigCache(4 * len(w.reqs))},
	}
}

// tampered returns reject variants of every workload request: a bumped C0,
// a bumped response, another pool key's image, a different message, and
// the first two ring members swapped.
func tampered(w *ringsigWorkload) []ringsig.VerifyRequest {
	n := ringsig.Curve.Params().N
	bump := func(k *big.Int) *big.Int {
		b := new(big.Int).Add(k, big.NewInt(1))
		return b.Mod(b, n)
	}
	images := [2]ringsig.Point{w.pool[0].KeyImage(), w.pool[1].KeyImage()}
	var bad []ringsig.VerifyRequest
	for _, r := range w.reqs {
		sig := *r.Sig
		c0 := sig
		c0.C0 = bump(sig.C0)
		s := sig
		s.S = append([]*big.Int{}, sig.S...)
		s.S[0] = bump(sig.S[0])
		img := sig
		img.Image = images[0]
		if img.Image.Equal(sig.Image) {
			img.Image = images[1]
		}
		swapped := append([]ringsig.Point{}, r.Ring...)
		swapped[0], swapped[1] = swapped[1], swapped[0]
		bad = append(bad,
			ringsig.VerifyRequest{Sig: &c0, Ring: r.Ring, Msg: r.Msg},
			ringsig.VerifyRequest{Sig: &s, Ring: r.Ring, Msg: r.Msg},
			ringsig.VerifyRequest{Sig: &img, Ring: r.Ring, Msg: r.Msg},
			ringsig.VerifyRequest{Sig: r.Sig, Ring: r.Ring, Msg: append([]byte("not "), r.Msg...)},
			ringsig.VerifyRequest{Sig: r.Sig, Ring: swapped, Msg: r.Msg},
		)
	}
	return bad
}

// checkRingsigWorkload refuses a workload unless every engine
// configuration accepts each of its signatures, alone and in a batch, and
// rejects each tampered variant. Every engine runs the batches twice, so
// the transcript-cached engine's second pass is checked too.
func checkRingsigWorkload(w *ringsigWorkload) error {
	bad := tampered(w)
	for e, eng := range ringsigEngines(w) {
		for i, r := range w.reqs {
			if err := eng.Verify(r.Sig, r.Ring, r.Msg); err != nil {
				return fmt.Errorf("bench: engine %d rejects workload signature %d: %v", e, i, err)
			}
		}
		for pass := 0; pass < 2; pass++ {
			if res := eng.VerifyBatch(context.Background(), w.reqs); !res.OK() {
				return fmt.Errorf("bench: engine %d rejects workload signature %d in a batch: %v",
					e, res.FirstFailure, res.Errs[res.FirstFailure])
			}
			for i, err := range eng.VerifyBatch(context.Background(), bad).Errs {
				if err == nil {
					return fmt.Errorf("bench: engine %d accepts tampered request %d", e, i)
				}
			}
		}
	}
	return nil
}

// ringsigArm is one arm of a sweep point; fn must process the whole batch
// per iteration.
type ringsigArm struct {
	name string
	fn   func(b *testing.B)
}

// measureArms times every arm ringsigBenchRuns times, round-robin, and
// returns one point per arm, in arm order: the median ns/op with the
// fastest and slowest run, and the per-signature rate of the median. batch
// is 0 for the single-signature arms, which handle one signature per op.
func measureArms(ring, batch int, arms []ringsigArm) []RingsigBenchPoint {
	ns := make([][]float64, len(arms))
	for run := 0; run < ringsigBenchRuns; run++ {
		for a, arm := range arms {
			r := testing.Benchmark(arm.fn)
			ns[a] = append(ns[a], float64(r.T.Nanoseconds())/float64(r.N))
		}
	}
	out := make([]RingsigBenchPoint, len(arms))
	for a, arm := range arms {
		slices.Sort(ns[a])
		med := ns[a][len(ns[a])/2]
		out[a] = RingsigBenchPoint{
			Arm: arm.name, Ring: ring, Batch: batch,
			NsPerOp: med, NsPerOpMin: ns[a][0], NsPerOpMax: ns[a][len(ns[a])-1],
			SigsPerSec: float64(max(batch, 1)) / (med / 1e9),
		}
	}
	return out
}

// RingsigBenchmarks checks every workload, runs the sweep, and returns the
// BENCH_ringsig.json report.
func RingsigBenchmarks() (*RingsigBenchReport, error) {
	rep := &RingsigBenchReport{
		GeneratedBy: "cmd/benchfigures -bench-ringsig",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Runs:        ringsigBenchRuns,
		Note: "one sign/verify path (the ring walk); *_warm_hp arms use an Hp memo " +
			"precomputed from the key pool; sign_verified_warm_hp is sign plus its " +
			"self-verification, overlapped (compare sign_warm_hp + verify_warm_hp); " +
			"batch arms run on gomaxprocs workers; " +
			"cached_block_validation is admission-warmed block re-validation " +
			"(the Step-4 workload), not a cold verify",
	}

	// Single-signature arms over ring size.
	for _, ringSize := range ringsigBenchRings {
		w, err := buildRingsigWorkload(ringSize, 1, fmt.Sprintf("single-%d", ringSize))
		if err != nil {
			return nil, err
		}
		if err := checkRingsigWorkload(w); err != nil {
			return nil, err
		}
		req := w.reqs[0]
		sk, ring := w.pool[0], req.Ring
		signerIdx := -1
		for i, p := range ring {
			if p.Equal(sk.Public) {
				signerIdx = i
			}
		}
		engines := ringsigEngines(w)
		cold, warm := engines[0], engines[1]
		sign := func(eng *ringsig.Engine) func(b *testing.B) {
			return func(b *testing.B) {
				rng := newBenchRand("sign")
				for i := 0; i < b.N; i++ {
					if _, err := eng.SignCtx(context.Background(), rng, sk, ring, signerIdx, req.Msg); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		signVerified := func(eng *ringsig.Engine) func(b *testing.B) {
			return func(b *testing.B) {
				rng := newBenchRand("sign")
				for i := 0; i < b.N; i++ {
					if _, err := eng.SignVerifiedCtx(context.Background(), rng, sk, ring, signerIdx, req.Msg); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		verify := func(eng *ringsig.Engine) func(b *testing.B) {
			return func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := eng.Verify(req.Sig, req.Ring, req.Msg); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		rep.Single = append(rep.Single, measureArms(ringSize, 0, []ringsigArm{
			{"sign", sign(cold)},
			{"sign_warm_hp", sign(warm)},
			{"verify", verify(cold)},
			{"verify_warm_hp", verify(warm)},
			{"sign_verified_warm_hp", signVerified(warm)},
		})...)
	}

	// Batch arms over ring size × batch size.
	for _, ringSize := range ringsigBenchRings {
		for _, batch := range ringsigBenchBatches {
			w, err := buildRingsigWorkload(ringSize, batch, fmt.Sprintf("batch-%d-%d", ringSize, batch))
			if err != nil {
				return nil, err
			}
			if err := checkRingsigWorkload(w); err != nil {
				return nil, err
			}
			engines := ringsigEngines(w)
			// Block validation: every signature was verified at admission,
			// so the transcript cache settles the re-verify with one hash
			// each.
			engines[2].VerifyBatch(context.Background(), w.reqs)
			var arms []ringsigArm
			for a, name := range []string{"batch", "batch_warm_hp", "cached_block_validation"} {
				eng := engines[a]
				arms = append(arms, ringsigArm{name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if !eng.VerifyBatch(context.Background(), w.reqs).OK() {
							b.Fatal("batch rejected")
						}
					}
				}})
			}
			rep.BatchArms = append(rep.BatchArms, measureArms(ringSize, batch, arms)...)
		}
	}
	rep.WorkloadChecked = true
	return rep, nil
}
