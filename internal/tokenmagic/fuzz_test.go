package tokenmagic

// Native fuzzing over the sweep's equivalence contract: for any (seed,
// workload shape, requirement, algorithm, StopAfter budget) the memoised
// sweep must return exactly the per-token oracle's candidates, Iterations
// included, and GenerateRSSeeded the oracle's uniform pick. The corpus seeds
// cover each algorithm and both shapes; the mutator then explores instance
// space. CI runs this as a -fuzztime smoke on every push.

import (
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/workload"
)

// fuzzDataset normalises raw fuzz bytes into a small, always-valid workload:
// a Nested batch (rings nest by extension) or a Synthetic one (disjoint
// super rings and fresh tokens). TM_B's exact search gets at most 10 tokens.
func fuzzDataset(seed int64, shape, size, rings uint8, algo Algorithm) (*workload.Dataset, error) {
	maxTokens := 32
	if algo == BFS {
		maxTokens = 10
	}
	if shape%2 == 0 {
		lambda := 4 + int(size)%(maxTokens-3)
		return workload.Nested(lambda, int(rings)%(lambda/4+1), seed)
	}
	supers := int(rings) % 4
	sMin := 1 + int(size)%3
	sMax := sMin + int(size/3)%3
	fresh := 1 + int(size/9)%12
	for supers*sMax+fresh > maxTokens {
		if supers > 0 {
			supers--
		} else {
			fresh--
		}
	}
	return workload.Synthetic(workload.SyntheticParams{
		NumSupers: supers, SuperSizeMin: sMin, SuperSizeMax: sMax,
		NumFresh: fresh, Sigma: 1 + float64(shape/2%6), Seed: seed,
	})
}

func FuzzSweepEquivalence(f *testing.F) {
	// seed, shape, size, rings, cTenths, l, stopAfter, algo, targetSel
	f.Add(int64(1), uint8(0), uint8(20), uint8(6), uint8(10), uint8(3), uint8(0), uint8(0), uint8(3))
	f.Add(int64(-7), uint8(1), uint8(40), uint8(3), uint8(5), uint8(2), uint8(1), uint8(1), uint8(0))
	f.Add(int64(42), uint8(2), uint8(9), uint8(2), uint8(20), uint8(2), uint8(2), uint8(2), uint8(7))
	f.Add(int64(1<<40), uint8(3), uint8(77), uint8(2), uint8(15), uint8(3), uint8(0), uint8(3), uint8(11))
	f.Add(int64(5), uint8(4), uint8(3), uint8(1), uint8(10), uint8(2), uint8(0), uint8(4), uint8(2))
	// TM_B over a super ring of two and eight fresh tokens: its candidates
	// differ between the tokens of one module, so a memo that covered TM_B
	// would diverge here.
	f.Add(int64(-243), uint8(1), uint8(64), uint8(222), uint8(255), uint8(255), uint8(161), uint8(214), uint8(11))

	f.Fuzz(func(t *testing.T, seed int64, shape, size, rings, cTenths, lreq, stopAfter, algo, targetSel uint8) {
		algorithm := Algorithm(int(algo) % 5)
		d, err := fuzzDataset(seed, shape, size, rings, algorithm)
		if err != nil {
			t.Fatal(err)
		}
		n := d.Ledger.NumTokens()
		req := diversity.Requirement{
			C: 0.5 + float64(cTenths%21)/10, // 0.5 … 2.5
			L: 2 + int(lreq%3),              // 2 … 4
		}
		fw, err := New(d.Ledger, Config{
			Lambda:    n,
			Headroom:  algorithm != BFS,
			Algorithm: algorithm,
			Randomize: true,
			StopAfter: int(stopAfter) % (n + 1), // 0 … n
			Metrics:   obs.NewRegistry(),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		target := chain.TokenID(int(targetSel) % n)
		got, want, _, _, ok := sweepPair(t, fw, target, req, seed)
		if !ok {
			t.Fatalf("target %d has no batch", target)
		}
		assertSameSweep(t, algorithm.String(), fw, target, req, seed, got, want)
	})
}
