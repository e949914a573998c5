package diversity

import "math"

// Entropy ℓ-diversity is the sibling of the recursive variant in
// Machanavajjhala et al.'s taxonomy: a multiset is entropy ℓ-diverse when
// the Shannon entropy of its class distribution is at least log(ℓ). The
// paper adopts the recursive variant for DA-MS; the entropy variant is
// provided as an audit metric and an alternative acceptance test —
// it is strictly stronger at equal ℓ for skewed distributions and is what
// several deanonymisation papers report, so the harness exposes both.

// Entropy returns the Shannon entropy (in bits) of the histogram's HT
// distribution; 0 for empty or single-class histograms.
func (h *Histogram) Entropy() float64 {
	if h.total == 0 {
		return 0
	}
	e := 0.0
	for _, c := range h.counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(h.total)
		e -= p * math.Log2(p)
	}
	return e
}

// EffectiveClasses returns 2^entropy — the "effective number" of equally
// likely HTs the distribution is worth. A ring whose tokens are spread over
// 10 HTs but dominated by one of them may have an effective class count
// barely above 1.
func (h *Histogram) EffectiveClasses() float64 {
	if h.total == 0 {
		return 0
	}
	return math.Exp2(h.Entropy())
}

// SatisfiesEntropy reports entropy ℓ-diversity: entropy ≥ log2(ℓ).
// ℓ ≤ 1 is vacuously satisfied by any non-empty histogram.
func (h *Histogram) SatisfiesEntropy(l int) bool {
	if h.total == 0 {
		return true
	}
	if l <= 1 {
		return true
	}
	return h.Entropy() >= math.Log2(float64(l))-1e-12
}
