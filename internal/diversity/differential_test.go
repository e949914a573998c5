package diversity

// Differential tests: drive random Add/Remove/AddN/RemoveN sequences and
// assert the incremental count-of-counts index always agrees with a
// from-scratch sorted recomputation over an independently maintained model.
// The histogram counts dense class ids; the model keys the same counts by
// HT, with class k standing for the sparse HT htOf(k), so the oracle is the
// map-keyed histogram the class-indexed one replaced.

import (
	"math/rand"
	"sort"
	"testing"

	"tokenmagic/internal/chain"
)

// model is the reference implementation: a plain count map, recomputed from
// scratch (collect → sort descending → fold) on every query.
type model map[chain.TxID]int

func (m model) freqsDesc() []int {
	qs := make([]int, 0, len(m))
	for _, c := range m {
		qs = append(qs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(qs)))
	return qs
}

func (m model) total() int {
	t := 0
	for _, c := range m {
		t += c
	}
	return t
}

func (m model) slack(req Requirement) float64 {
	if m.total() == 0 {
		return -1
	}
	qs := m.freqsDesc()
	tail := 0.0
	for i := req.L - 1; i < len(qs); i++ {
		tail += float64(qs[i])
	}
	return float64(qs[0]) - req.C*tail
}

func (m model) maxCount() int {
	best := 0
	for _, c := range m {
		if c > best {
			best = c
		}
	}
	return best
}

func (m model) minCount() int {
	best := 0
	for _, c := range m {
		if best == 0 || c < best {
			best = c
		}
	}
	return best
}

// htOf is the HT that class cls stands for in the model: sparse and far
// beyond any class count, so a histogram that indexed by raw TxID would
// fail loudly.
func htOf(cls int) chain.TxID { return chain.TxID(1_000_000_000 + 7919*cls) }

var diffReqs = []Requirement{
	{C: 0.5, L: 1}, {C: 0.6, L: 2}, {C: 1, L: 3}, {C: 2, L: 4}, {C: 0.3, L: 7},
}

func checkAgainstModel(t *testing.T, step int, h *Histogram, m model) {
	t.Helper()
	if h.Total() != m.total() {
		t.Fatalf("step %d: Total = %d, model %d", step, h.Total(), m.total())
	}
	if h.Classes() != len(m) {
		t.Fatalf("step %d: Classes = %d, model %d", step, h.Classes(), len(m))
	}
	if h.MaxCount() != m.maxCount() {
		t.Fatalf("step %d: MaxCount = %d, model %d", step, h.MaxCount(), m.maxCount())
	}
	if h.MinCount() != m.minCount() {
		t.Fatalf("step %d: MinCount = %d, model %d", step, h.MinCount(), m.minCount())
	}
	got, want := h.Frequencies(), m.freqsDesc()
	if len(got) != len(want) {
		t.Fatalf("step %d: Frequencies len %d, model %d", step, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: Frequencies[%d] = %d, model %d (%v vs %v)", step, i, got[i], want[i], got, want)
		}
	}
	for _, req := range diffReqs {
		if hs, ms := h.Slack(req), m.slack(req); hs != ms {
			t.Fatalf("step %d: Slack(%v) = %v, model %v (freqs %v)", step, req, hs, ms, want)
		}
		if h.Satisfies(req) != (m.slack(req) < 0) {
			t.Fatalf("step %d: Satisfies(%v) disagrees with model", step, req)
		}
	}
}

func TestHistogramDifferentialRandomOps(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const classes = 12
		h := NewHistogram(classes)
		m := model{}
		for step := 0; step < 2000; step++ {
			cls := rng.Intn(classes)
			tx := htOf(cls)
			switch rng.Intn(5) {
			case 0, 1:
				h.Add(cls)
				m[tx]++
			case 2:
				n := 1 + rng.Intn(6)
				h.AddN(cls, n)
				m[tx] += n
			case 3:
				h.Remove(cls)
				if m[tx] > 0 {
					m[tx]--
					if m[tx] == 0 {
						delete(m, tx)
					}
				}
			case 4:
				n := 1 + rng.Intn(6)
				h.RemoveN(cls, n)
				if c := m[tx]; c > 0 {
					if n > c {
						n = c
					}
					if m[tx] = c - n; m[tx] == 0 {
						delete(m, tx)
					}
				}
			}
			if step%7 == 0 || step > 1900 {
				checkAgainstModel(t, step, h, m)
			}
		}
		checkAgainstModel(t, -1, h, m)
	}
}

// TestHistogramProbesMatchScratch checks the delta probes (SlackIfAdded,
// SlackWithout) against a from-scratch recomputation and asserts they leave
// the index unmodified.
func TestHistogramProbesMatchScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const classes = 10
	h := NewHistogram(classes + 3)
	m := model{}
	for i := 0; i < 300; i++ {
		cls := rng.Intn(classes)
		n := 1 + rng.Intn(4)
		h.AddN(cls, n)
		m[htOf(cls)] += n

		// SlackIfAdded probe with a random delta.
		delta := make([]int, rng.Intn(6))
		for j := range delta {
			delta[j] = rng.Intn(classes + 3)
		}
		m2 := model{}
		for tx, c := range m {
			m2[tx] = c
		}
		for _, cls := range delta {
			m2[htOf(cls)]++
		}
		for _, req := range diffReqs {
			if got, want := h.SlackIfAdded(req, delta), m2.slack(req); got != want {
				t.Fatalf("SlackIfAdded(%v, %v) = %v, scratch %v", req, delta, got, want)
			}
		}
		checkAgainstModel(t, i, h, m) // probe must not leave residue

		// SlackWithout probe for every present class and one absent one.
		for probe := 0; probe < classes+1; probe++ {
			tx := htOf(probe)
			m3 := model{}
			for k, c := range m {
				if k != tx {
					m3[k] = c
				}
			}
			for _, req := range diffReqs {
				if got, want := h.SlackWithout(req, probe), m3.slack(req); got != want {
					t.Fatalf("SlackWithout(%v, %v) = %v, scratch %v (model %v)", req, probe, got, want, m)
				}
			}
		}
		checkAgainstModel(t, i, h, m)
	}
}

// TestHistogramResetReuse reuses one histogram across Resets whose class
// counts shrink and then grow past every earlier size. Each Reset must
// leave every class of the new size empty, whatever the previous round
// left behind, and the index must then track the model as a fresh one
// would.
func TestHistogramResetReuse(t *testing.T) {
	h := NewHistogram(6)
	rng := rand.New(rand.NewSource(7))
	sizes := []int{6, 12, 5, 1, 0, 3, 40, 2, 200, 7, 64}
	for round := 0; round < 20; round++ {
		classes := sizes[round%len(sizes)]
		h.Reset(classes)
		if h.Total() != 0 || h.Classes() != 0 || h.MaxCount() != 0 || len(h.Frequencies()) != 0 {
			t.Fatalf("round %d: Reset(%d) left Total=%d Classes=%d MaxCount=%d", round, classes, h.Total(), h.Classes(), h.MaxCount())
		}
		for cls := 0; cls < classes; cls++ {
			if h.Count(cls) != 0 {
				t.Fatalf("round %d: Reset(%d) left class %d at %d", round, classes, cls, h.Count(cls))
			}
		}
		m := model{}
		for i := 0; classes > 0 && i < 50; i++ {
			cls := rng.Intn(classes)
			tx := htOf(cls)
			n := 1 + rng.Intn(5)
			if rng.Intn(4) > 0 {
				h.AddN(cls, n)
				m[tx] += n
				continue
			}
			h.RemoveN(cls, n)
			if c := m[tx]; c > 0 {
				if m[tx] = max(c-n, 0); m[tx] == 0 {
					delete(m, tx)
				}
			}
		}
		checkAgainstModel(t, round, h, m)
	}
	h.Reset(6)
	if h.Total() != 0 || h.Classes() != 0 || h.MaxCount() != 0 || h.Slack(Requirement{C: 1, L: 2}) != -1 {
		t.Fatal("Reset did not empty the histogram")
	}
}

// TestHistogramOfInternsSparseHTs builds histograms of token sets whose HTs
// are sparse and huge (about 10⁹ + k), far beyond any class count, and
// requires HistogramOf to agree with the map-keyed model: the same counts,
// each distinct HT interned as the next class id in token order, and every
// SlackWithout probe equal to the model with that HT's class dropped.
func TestHistogramOfInternsSparseHTs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		hts := make([]chain.TxID, n)
		for i := range hts {
			hts[i] = chain.TxID(1_000_000_000 + 104729*rng.Intn(1+rng.Intn(12)))
		}
		tokens := make(chain.TokenSet, n)
		for i := range tokens {
			tokens[i] = chain.TokenID(i)
		}
		h := HistogramOf(tokens, originFromSlice(hts))
		m := model{}
		var order []chain.TxID
		for _, tx := range hts {
			if m[tx] == 0 {
				order = append(order, tx)
			}
			m[tx]++
		}
		checkAgainstModel(t, trial, h, m)
		seen := 0
		h.Each(func(cls, n int) bool {
			if cls != seen || n != m[order[cls]] {
				t.Fatalf("trial %d: class %d has %d tokens, want class %d with %d (HT %v)", trial, cls, n, seen, m[order[seen]], order[seen])
			}
			seen++
			without := model{}
			for tx, c := range m {
				if tx != order[cls] {
					without[tx] = c
				}
			}
			for _, req := range diffReqs {
				if got, want := h.SlackWithout(req, cls), without.slack(req); got != want {
					t.Fatalf("trial %d: SlackWithout(%v, class of %v) = %v, model %v", trial, req, order[cls], got, want)
				}
			}
			return true
		})
		if seen != len(order) {
			t.Fatalf("trial %d: Each visited %d classes, want %d", trial, seen, len(order))
		}
		for _, req := range diffReqs {
			if got, want := SatisfiesTokens(tokens, originFromSlice(hts), req), m.slack(req) < 0; got != want {
				t.Fatalf("trial %d: SatisfiesTokens(%v) = %v, model %v", trial, req, got, want)
			}
		}
	}
}

func FuzzHistogramDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 4, 5})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := NewHistogram(9)
		m := model{}
		for i := 0; i+1 < len(ops); i += 2 {
			cls := int(ops[i] % 9)
			tx := htOf(cls)
			if ops[i+1] < 128 {
				n := int(ops[i+1]%5) + 1
				h.AddN(cls, n)
				m[tx] += n
			} else {
				n := int(ops[i+1]%5) + 1
				h.RemoveN(cls, n)
				if c := m[tx]; c > 0 {
					if n > c {
						n = c
					}
					if m[tx] = c - n; m[tx] == 0 {
						delete(m, tx)
					}
				}
			}
		}
		checkAgainstModel(t, -1, h, m)
	})
}

// Frequencies, MaxCount and MinCount read the histogram's count-of-counts
// index back for the model checks.
//
// Frequencies returns the counts sorted in non-increasing order
// (q₁ ≥ q₂ ≥ … ≥ q_θ), materialised from the count-of-counts index without
// sorting.
func (h *Histogram) Frequencies() []int {
	qs := make([]int, 0, h.classes)
	for c := h.max; c >= 1; c-- {
		for i := 0; i < h.freq[c]; i++ {
			qs = append(qs, c)
		}
	}
	return qs
}

// MaxCount returns q₁ (0 for an empty histogram). This is the q_M of
// Theorems 6.2/6.5/6.7. O(1): the maximum is maintained incrementally.
func (h *Histogram) MaxCount() int { return h.max }

// MinCount returns q_θ (0 for an empty histogram); the paper's q_min.
func (h *Histogram) MinCount() int {
	for c := 1; c <= h.max; c++ {
		if h.freq[c] > 0 {
			return c
		}
	}
	return 0
}
