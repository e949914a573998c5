package bench

// Ring-signature verification benchmarks behind BENCH_ringsig.json: the
// scalar-mult kernel layer (internal/ringsig) measured against the stock
// pre-kernel implementation it replaced, as sign/verify ns/op over ring
// size × batch size × workers. Before timing anything the harness proves
// the equivalence contract on the benchmark workload itself — byte-identical
// signatures from the same nonce stream and identical accept/reject
// decisions across valid and tampered batches — so a speedup can never come
// from quietly computing something different.
//
// The batch arms are labeled by what they amortise:
//
//   - stock_per_sig:       pre-kernel Verify in a loop (the baseline)
//   - kernel_batch:        VerifyBatch, per-batch Hp memo, no transcript cache
//   - kernel_batch_warm_hp: VerifyBatch against a registry-precomputed Hp
//     cache (a node knows its key universe ahead of time)
//   - cached_block_validation: VerifyBatch with the transcript cache warmed
//     by admission-time verification — the paper's Step-4 workload, where a
//     miner re-validates at block time what it already verified at submit
//     time. This is the headline arm at ring 16 × batch 64.
//
// Worker speedups are bounded by min(workers, num_cpu); a 1-core container
// legitimately reports ≈1× at every worker count (CI regenerates the
// artefact on multi-core runners, same as BENCH_parallel.json).

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"runtime"
	"testing"

	"tokenmagic/internal/ringsig"
)

// RingsigBenchPoint is one measured arm.
type RingsigBenchPoint struct {
	Arm            string  `json:"arm"`
	Ring           int     `json:"ring"`
	Batch          int     `json:"batch,omitempty"`
	Workers        int     `json:"workers,omitempty"`
	NsPerOp        float64 `json:"ns_per_op"`
	SigsPerSec     float64 `json:"sigs_per_sec"`
	SpeedupVsStock float64 `json:"speedup_vs_stock,omitempty"`
}

// RingsigBenchReport is the BENCH_ringsig.json payload. Commit names the
// checkout it was measured at (the caller fills it in).
type RingsigBenchReport struct {
	GeneratedBy        string              `json:"generated_by"`
	Commit             string              `json:"commit"`
	GOOS               string              `json:"goos"`
	GOARCH             string              `json:"goarch"`
	GOMAXPROCS         int                 `json:"gomaxprocs"`
	NumCPU             int                 `json:"num_cpu"`
	Note               string              `json:"note"`
	EquivalenceChecked bool                `json:"equivalence_checked"`
	Single             []RingsigBenchPoint `json:"single"`
	BatchArms          []RingsigBenchPoint `json:"batch"`
}

// Sweep grids. The headline acceptance point is ring 16 × batch 64.
var (
	ringsigBenchRings   = []int{8, 16}
	ringsigBenchBatches = []int{16, 64}
	ringsigBenchWorkers = []int{1, 2, 4}
)

// benchRand is a deterministic byte stream (sha256 counter mode) so the
// equivalence check can feed the stock and kernel signers identical nonces.
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

// checkRingsigEquivalence proves, on the benchmark workload, the contract
// the speedups rest on: identical signature bytes from identical nonce
// streams, and identical accept/reject decisions — including on tampered
// inputs — between the kernel engine and the stock implementation.
func checkRingsigEquivalence() error {
	w, err := buildRingsigWorkload(8, 4, "equivalence")
	if err != nil {
		return err
	}
	// Byte-identical signing from the same nonce stream.
	sk := w.pool[0]
	ring := w.reqs[0].Ring
	msg := []byte("equivalence message")
	signerIdx := -1
	for i, p := range ring {
		if p.Equal(sk.Public) {
			signerIdx = i
		}
	}
	if signerIdx < 0 {
		return fmt.Errorf("bench: signer not in ring")
	}
	kSig, err := ringsig.Sign(newBenchRand("nonce"), sk, ring, signerIdx, msg)
	if err != nil {
		return err
	}
	sSig, err := ringsig.StockSign(newBenchRand("nonce"), sk, ring, signerIdx, msg)
	if err != nil {
		return err
	}
	if kSig.C0.Cmp(sSig.C0) != 0 || !kSig.Image.Equal(sSig.Image) {
		return fmt.Errorf("bench: kernel and stock signatures diverge")
	}
	for i := range kSig.S {
		if kSig.S[i].Cmp(sSig.S[i]) != 0 {
			return fmt.Errorf("bench: kernel and stock s[%d] diverge", i)
		}
	}
	// Identical decisions on valid and tampered batches.
	var eng ringsig.Engine
	for i, req := range w.reqs {
		if (eng.Verify(req.Sig, req.Ring, req.Msg) == nil) !=
			(ringsig.StockVerify(req.Sig, req.Ring, req.Msg) == nil) {
			return fmt.Errorf("bench: decision divergence on valid sig %d", i)
		}
		bad := *req.Sig
		bad.C0 = new(big.Int).Add(req.Sig.C0, big.NewInt(1))
		if (eng.Verify(&bad, req.Ring, req.Msg) == nil) !=
			(ringsig.StockVerify(&bad, req.Ring, req.Msg) == nil) {
			return fmt.Errorf("bench: decision divergence on tampered sig %d", i)
		}
	}
	return nil
}

// measureBatch times fn (which must process the whole batch) and converts
// to per-batch and per-signature rates.
func measureBatch(batch int, fn func(b *testing.B)) (nsPerOp, sigsPerSec float64) {
	r := testing.Benchmark(fn)
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	return ns, float64(batch) / (ns / 1e9)
}

// RingsigBenchmarks runs the equivalence check and the full sweep, and
// returns the BENCH_ringsig.json report.
func RingsigBenchmarks() (*RingsigBenchReport, error) {
	rep := &RingsigBenchReport{
		GeneratedBy: "cmd/benchfigures -bench-ringsig",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Note: "speedup_vs_stock compares against the pre-kernel implementation " +
			"(stock_verify / stock_per_sig) at the same ring and batch size; " +
			"worker scaling is bounded by min(workers, num_cpu); " +
			"cached_block_validation is admission-warmed block re-validation " +
			"(the Step-4 workload), not a cold verify",
	}
	if err := checkRingsigEquivalence(); err != nil {
		return nil, err
	}
	rep.EquivalenceChecked = true

	// Single-signature arms over ring size.
	for _, ringSize := range ringsigBenchRings {
		w, err := buildRingsigWorkload(ringSize, 1, fmt.Sprintf("single-%d", ringSize))
		if err != nil {
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
		arms := []struct {
			name string
			fn   func(b *testing.B)
		}{
			{"stock_sign", func(b *testing.B) {
				rng := newBenchRand("sign")
				for i := 0; i < b.N; i++ {
					if _, err := ringsig.StockSign(rng, sk, ring, signerIdx, req.Msg); err != nil {
						b.Fatal(err)
					}
				}
			}},
			{"kernel_sign", func(b *testing.B) {
				rng := newBenchRand("sign")
				for i := 0; i < b.N; i++ {
					if _, err := ringsig.Sign(rng, sk, ring, signerIdx, req.Msg); err != nil {
						b.Fatal(err)
					}
				}
			}},
			{"stock_verify", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := ringsig.StockVerify(req.Sig, req.Ring, req.Msg); err != nil {
						b.Fatal(err)
					}
				}
			}},
			{"kernel_verify", func(b *testing.B) {
				var eng ringsig.Engine
				for i := 0; i < b.N; i++ {
					if err := eng.Verify(req.Sig, req.Ring, req.Msg); err != nil {
						b.Fatal(err)
					}
				}
			}},
			{"kernel_verify_warm_hp", func(b *testing.B) {
				eng := ringsig.Engine{Hp: ringsig.NewHpCache()}
				eng.Hp.Precompute(w.pubs)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := eng.Verify(req.Sig, req.Ring, req.Msg); err != nil {
						b.Fatal(err)
					}
				}
			}},
		}
		var stockSignNs, stockVerifyNs float64
		for _, arm := range arms {
			ns, sps := measureBatch(1, arm.fn)
			pt := RingsigBenchPoint{Arm: arm.name, Ring: ringSize, NsPerOp: ns, SigsPerSec: sps}
			switch arm.name {
			case "stock_sign":
				stockSignNs = ns
			case "kernel_sign":
				pt.SpeedupVsStock = stockSignNs / ns
			case "stock_verify":
				stockVerifyNs = ns
			default:
				pt.SpeedupVsStock = stockVerifyNs / ns
			}
			rep.Single = append(rep.Single, pt)
		}
	}

	// Batch arms over batch size × workers at each ring size.
	for _, ringSize := range ringsigBenchRings {
		for _, batch := range ringsigBenchBatches {
			w, err := buildRingsigWorkload(ringSize, batch, fmt.Sprintf("batch-%d-%d", ringSize, batch))
			if err != nil {
				return nil, err
			}
			stockNs, stockSps := measureBatch(batch, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, req := range w.reqs {
						if err := ringsig.StockVerify(req.Sig, req.Ring, req.Msg); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			rep.BatchArms = append(rep.BatchArms, RingsigBenchPoint{
				Arm: "stock_per_sig", Ring: ringSize, Batch: batch, Workers: 1,
				NsPerOp: stockNs, SigsPerSec: stockSps,
			})
			for _, workers := range ringsigBenchWorkers {
				ns, sps := measureBatch(batch, func(b *testing.B) {
					eng := ringsig.Engine{Workers: workers}
					for i := 0; i < b.N; i++ {
						res := eng.VerifyBatch(context.Background(), w.reqs)
						if !res.OK() {
							b.Fatal("batch rejected")
						}
					}
				})
				rep.BatchArms = append(rep.BatchArms, RingsigBenchPoint{
					Arm: "kernel_batch", Ring: ringSize, Batch: batch, Workers: workers,
					NsPerOp: ns, SigsPerSec: sps, SpeedupVsStock: stockNs / ns,
				})
			}
			// Registry-precomputed Hp: the node built its cache from the key
			// universe at startup, so hashToPoint never runs during verify.
			ns, sps := measureBatch(batch, func(b *testing.B) {
				eng := ringsig.Engine{Hp: ringsig.NewHpCache(), Workers: 1}
				eng.Hp.Precompute(w.pubs)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := eng.VerifyBatch(context.Background(), w.reqs)
					if !res.OK() {
						b.Fatal("batch rejected")
					}
				}
			})
			rep.BatchArms = append(rep.BatchArms, RingsigBenchPoint{
				Arm: "kernel_batch_warm_hp", Ring: ringSize, Batch: batch, Workers: 1,
				NsPerOp: ns, SigsPerSec: sps, SpeedupVsStock: stockNs / ns,
			})
			// Block validation: every signature was verified at admission, so
			// the transcript cache settles the re-verify with one hash each.
			ns, sps = measureBatch(batch, func(b *testing.B) {
				eng := ringsig.Engine{
					Hp:      ringsig.NewHpCache(),
					Seen:    ringsig.NewSigCache(4 * batch),
					Workers: 1,
				}
				eng.Hp.Precompute(w.pubs)
				if res := eng.VerifyBatch(context.Background(), w.reqs); !res.OK() {
					b.Fatal("warmup batch rejected")
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := eng.VerifyBatch(context.Background(), w.reqs)
					if !res.OK() {
						b.Fatal("batch rejected")
					}
				}
			})
			rep.BatchArms = append(rep.BatchArms, RingsigBenchPoint{
				Arm: "cached_block_validation", Ring: ringSize, Batch: batch, Workers: 1,
				NsPerOp: ns, SigsPerSec: sps, SpeedupVsStock: stockNs / ns,
			})
		}
	}
	return rep, nil
}
