// Package diversity implements the recursive (c, ℓ)-diversity predicate the
// paper borrows from Machanavajjhala et al. and applies to the multiset of
// historical transactions (HTs) behind a ring signature's tokens.
//
// A frequency vector q₁ ≥ q₂ ≥ … ≥ q_θ (qᵢ = number of tokens whose HT is
// the i-th most frequent) satisfies recursive (c, ℓ)-diversity iff
//
//	q₁ < c · (q_ℓ + q_{ℓ+1} + … + q_θ).
//
// A ring signature is a recursive (c, ℓ)-diversity RS when both its own HT
// multiset and the HT multiset of each of its DTRSs satisfy the predicate
// (Definition 4). This package only provides the predicate and histogram
// machinery; DTRS enumeration lives in internal/dtrs.
//
// Histogram is an incremental count-of-counts index: alongside the per-class
// counts it maintains freq[c] (the number of HT classes with exactly c
// tokens), the running q₁ and the token total, so Add/Remove/AddN/RemoveN
// are O(1) and Slack/Satisfies/MaxCount/Classes read without allocating or
// sorting. DESIGN.md ("Incremental diversity-slack engine") documents the
// invariants.
package diversity

import (
	"errors"
	"fmt"
	"slices"

	"tokenmagic/internal/chain"
)

// Requirement is a user-declared recursive (c, ℓ)-diversity requirement.
type Requirement struct {
	C float64
	L int
}

// Validate reports whether the requirement parameters are well formed.
// c must be positive (the paper varies it in (0, 1]); ℓ must be ≥ 1.
func (r Requirement) Validate() error {
	if r.C <= 0 {
		return fmt.Errorf("%w: c = %v", ErrBadRequirement, r.C)
	}
	if r.L < 1 {
		return fmt.Errorf("%w: ℓ = %d", ErrBadRequirement, r.L)
	}
	return nil
}

// WithHeadroom returns the requirement tightened to (c, ℓ+1). Theorem 6.4:
// if a ring's HT multiset satisfies (c, ℓ+1)-diversity then every DTRS of the
// ring satisfies (c, ℓ)-diversity, which is how the second practical
// configuration guarantees immutability.
func (r Requirement) WithHeadroom() Requirement { return Requirement{C: r.C, L: r.L + 1} }

func (r Requirement) String() string { return fmt.Sprintf("(%g,%d)-diversity", r.C, r.L) }

// ErrBadRequirement reports malformed (c, ℓ) parameters.
var ErrBadRequirement = errors.New("diversity: invalid requirement")

// Histogram is a multiset of HTs represented as per-class counts plus a
// count-of-counts index. A class is a dense id 0..K−1 that the caller
// interns for each distinct HT (HistogramOf interns a token set's HTs
// itself; internal/selector interns a whole module table once), so every
// count is a slice index, never a map lookup. The zero value is an empty
// histogram over no classes; NewHistogram and Reset size it for K.
//
// Invariants (see DESIGN.md):
//
//	freq[c]  = |{k : counts[k] == c}| for 1 ≤ c ≤ max
//	max      = q₁ = max count (0 when empty)
//	total    = Σ_c c·freq[c] = Σ_k counts[k]
//	classes  = θ = Σ_c freq[c] = |{k : counts[k] > 0}|
type Histogram struct {
	counts  []int // counts[k] = tokens of class k
	classes int   // θ: classes with a non-zero count
	freq    []int // freq[c] = classes with exactly c tokens; index 0 unused
	max     int   // running q₁
	total   int

	// Probe scratch (SlackIfAdded): reused across calls so delta probes
	// allocate nothing after warm-up.
	probeCls []int
	probeOld []int
	probeNew []int
}

// NewHistogram returns an empty histogram over classes 0..classes−1.
func NewHistogram(classes int) *Histogram {
	return &Histogram{counts: make([]int, classes)}
}

// HistogramOf builds the HT histogram for a token set under the given
// token→HT mapping, interning each distinct HT as the next class id in
// token order. Tokens mapping to chain.NoTx are counted under NoTx — they
// still occupy a histogram class, mirroring the paper's treatment of every
// token having exactly one HT. A ring has about a dozen tokens, so the
// intern is a linear scan over the HTs seen so far.
func HistogramOf(tokens chain.TokenSet, origin func(chain.TokenID) chain.TxID) *Histogram {
	h := &Histogram{counts: make([]int, 0, len(tokens))}
	seen := make([]chain.TxID, 0, len(tokens))
	for _, t := range tokens {
		tx := origin(t)
		cls := slices.Index(seen, tx)
		if cls < 0 {
			cls = len(seen)
			seen = append(seen, tx)
			h.counts = append(h.counts, 0)
		}
		h.Add(cls)
	}
	return h
}

// bump moves one class from count old to count new in the freq index and
// maintains the running maximum and the class count. old or new may be 0
// (class appears or disappears).
func (h *Histogram) bump(old, new int) {
	if old > 0 {
		h.freq[old]--
	} else {
		h.classes++
	}
	if new > 0 {
		for len(h.freq) <= new {
			h.freq = append(h.freq, 0)
		}
		h.freq[new]++
		if new > h.max {
			h.max = new
		}
	} else {
		h.classes--
	}
	// Walking max down is amortised O(1): each level crossed was paid for by
	// the additions that raised max past it.
	for h.max > 0 && h.freq[h.max] == 0 {
		h.max--
	}
}

// Add records one token of class cls.
func (h *Histogram) Add(cls int) { h.AddN(cls, 1) }

// AddN records n tokens of class cls.
func (h *Histogram) AddN(cls, n int) {
	if n <= 0 {
		return
	}
	old := h.counts[cls]
	h.counts[cls] = old + n
	h.total += n
	h.bump(old, old+n)
}

// Remove deletes one token of class cls; it is a no-op if none is recorded.
func (h *Histogram) Remove(cls int) { h.RemoveN(cls, 1) }

// RemoveN deletes up to n tokens of class cls (all of them if fewer than n
// are recorded).
func (h *Histogram) RemoveN(cls, n int) {
	if n <= 0 {
		return
	}
	old := h.counts[cls]
	if old == 0 {
		return
	}
	if n > old {
		n = old
	}
	h.counts[cls] = old - n
	h.total -= n
	h.bump(old, old-n)
}

// Reset empties the histogram and sizes it for classes 0..classes−1,
// retaining its allocations for reuse.
func (h *Histogram) Reset(classes int) {
	if cap(h.counts) < classes {
		h.counts = make([]int, classes)
	} else {
		h.counts = h.counts[:classes]
		clear(h.counts)
	}
	clear(h.freq)
	h.classes, h.max, h.total = 0, 0, 0
}

// Clone returns an independent copy.
func (h *Histogram) Clone() *Histogram {
	return &Histogram{
		counts:  slices.Clone(h.counts),
		classes: h.classes,
		freq:    slices.Clone(h.freq),
		max:     h.max,
		total:   h.total,
	}
}

// Total returns the number of tokens recorded.
func (h *Histogram) Total() int { return h.total }

// Classes returns θ, the number of distinct HTs recorded.
func (h *Histogram) Classes() int { return h.classes }

// Count returns the number of tokens recorded for class cls.
func (h *Histogram) Count(cls int) int { return h.counts[cls] }

// Each calls f for every non-empty class, in class-id order, until f
// returns false. f must not mutate the histogram.
func (h *Histogram) Each(f func(cls, n int) bool) {
	for cls, n := range h.counts {
		if n > 0 && !f(cls, n) {
			return
		}
	}
}

// Satisfies reports whether the histogram satisfies recursive
// (c, ℓ)-diversity: q₁ < c·(q_ℓ + … + q_θ). When θ < ℓ the tail sum is
// empty, so a non-empty histogram always fails (q₁ ≥ 1 > 0 = c·0); an empty
// histogram vacuously satisfies every requirement.
//
//tmlint:hotpath
func (h *Histogram) Satisfies(req Requirement) bool {
	return h.Slack(req) < 0
}

// Slack returns δ = q₁ − c·(q_ℓ + … + q_θ). Negative slack means the
// requirement is met; the Progressive algorithm greedily drives δ below 0
// (Section 6.2), so exposing it directly avoids recomputation.
//
// The ℓ-tail q_ℓ+…+q_θ is total − (q₁+…+q_{ℓ−1}); the head sum is read off
// the count-of-counts index by walking at most q₁ levels from the running
// maximum, with zero allocation. ℓ is a per-call parameter, so one index
// serves every requirement (see DESIGN.md on why the head walk, not a
// pinned-ℓ running tail, is the right trade).
//
//tmlint:hotpath
func (h *Histogram) Slack(req Requirement) float64 {
	if h.total == 0 {
		return -1 // vacuous satisfaction for empty multisets
	}
	head := 0
	k := req.L - 1 // classes still wanted in the head
	for c := h.max; c >= 1 && k > 0; c-- {
		n := h.freq[c]
		if n == 0 {
			continue
		}
		if n > k {
			n = k
		}
		head += n * c
		k -= n
	}
	return float64(h.max) - req.C*float64(h.total-head)
}

// SlackIfAdded returns the slack the histogram would have after adding one
// token of each class in clss (duplicates add multiplicity). The probe is
// read-only: it overlays the delta on the count-of-counts walk without
// touching the counts, so it neither clones nor allocates (beyond warm-up
// of a reusable scratch buffer).
//
//tmlint:hotpath
func (h *Histogram) SlackIfAdded(req Requirement, clss []int) float64 {
	h.probeCls = h.probeCls[:0]
	h.probeNew = h.probeNew[:0]
	for _, cls := range clss {
		found := false
		for j, x := range h.probeCls {
			if x == cls {
				h.probeNew[j]++
				found = true
				break
			}
		}
		if !found {
			h.probeCls = append(h.probeCls, cls)
			h.probeNew = append(h.probeNew, 1)
		}
	}
	return h.SlackIfAddedN(req, h.probeCls, h.probeNew)
}

// SlackIfAddedN returns the slack the histogram would have after adding
// ns[i] tokens of class clss[i] for each i. clss must be distinct and ns
// positive — exactly the footprint shape internal/selector precomputes per
// module. Read-only: only slice reads, no mutation, no allocation.
//
//tmlint:hotpath
func (h *Histogram) SlackIfAddedN(req Requirement, clss []int, ns []int) float64 {
	f := len(clss)
	if cap(h.probeOld) < f {
		//lint:ignore hotalloc amortized scratch warm-up: grows monotonically to the widest footprint, then every probe reuses it (the benchmarks assert 0 allocs/op steady-state)
		h.probeOld = make([]int, f)
	}
	old := h.probeOld[:f]
	newTotal := h.total
	newMax := h.max
	for i, cls := range clss {
		c := h.counts[cls]
		old[i] = c
		newTotal += ns[i]
		if c+ns[i] > newMax {
			newMax = c + ns[i]
		}
	}
	if newTotal == 0 {
		return -1
	}
	head := 0
	k := req.L - 1
	for c := newMax; c >= 1 && k > 0; c-- {
		n := 0
		if c <= h.max {
			n = h.freq[c]
		}
		// Overlay the delta: each probed class leaves level old[i] and
		// lands on level old[i]+ns[i].
		for i := 0; i < f; i++ {
			if old[i] == c {
				n--
			}
			if old[i]+ns[i] == c {
				n++
			}
		}
		if n <= 0 {
			continue
		}
		if n > k {
			n = k
		}
		head += n * c
		k -= n
	}
	return float64(newMax) - req.C*float64(newTotal-head)
}

// SlackWithout returns the slack the histogram would have if the whole class
// cls were removed, without mutating the index. This is exactly the DTRS
// check of Theorem 6.1: ψ(i,j) = ring \ T̃(h_j) drops one full HT class.
//
//tmlint:hotpath
func (h *Histogram) SlackWithout(req Requirement, cls int) float64 {
	drop := h.counts[cls]
	if drop == 0 {
		return h.Slack(req)
	}
	total := h.total - drop
	if total == 0 {
		return -1
	}
	q1 := 0
	head := 0
	k := req.L - 1
	for c := h.max; c >= 1; c-- {
		n := h.freq[c]
		if c == drop {
			n--
		}
		if n == 0 {
			continue
		}
		if q1 == 0 {
			q1 = c
		}
		if k <= 0 {
			break
		}
		if n > k {
			n = k
		}
		head += n * c
		k -= n
	}
	return float64(q1) - req.C*float64(total-head)
}

// SatisfiesTokens is a convenience wrapper: it builds the histogram of the
// token set and evaluates the predicate. tokens is not modified.
func SatisfiesTokens(tokens chain.TokenSet, origin func(chain.TokenID) chain.TxID, req Requirement) bool {
	return HistogramOf(tokens, origin).Satisfies(req)
}
