// Package dtrs computes definite token-RS pair sets (DTRSs, Definition 2):
// minimal sets of token-RS pairs whose revelation lets an adversary determine
// the historical transaction of a ring's consumed token.
//
// Two paths are provided:
//
//   - Exact: Algorithm 3 over the enumerated token-RS combinations of an
//     instance. Exponential; only for small instances (the paper's Figure 4
//     scale) and for validating the closed form.
//   - Closed form: Theorem 6.1. Under the first practical configuration
//     (every ring is a union of super rings and fresh tokens), the token set
//     of the DTRS determining HT h_j for ring r_i is ψ(i,j) = r_i \ T̃(i,j),
//     and it exists iff the subset count v of r_i's super ring satisfies
//     v ≥ |r_i| − |T̃(i,j)| + 1. Polynomial, used by the production solvers.
package dtrs

import (
	"fmt"
	"sort"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/rsgraph"
)

// Pair is a token-RS pair ⟨t, r⟩: "token t is consumed in ring (index) r".
// Ring refers to a position in the analysed rsgraph.Instance, not an RSID,
// because DTRS analysis always happens relative to a fixed instance.
type Pair struct {
	Ring  int
	Token chain.TokenID
}

func (p Pair) String() string { return fmt.Sprintf("<%v,#%d>", p.Token, p.Ring) }

// DTRS is one definite token-RS pair set together with the HT it determines
// for the target ring.
type DTRS struct {
	Pairs      []Pair     // sorted by (Ring, Token); may be empty
	Determines chain.TxID // the HT of the target ring's consumed token
}

// Tokens returns the token set of the DTRS, the multiset Definition 4's
// second condition evaluates diversity over.
func (d DTRS) Tokens() chain.TokenSet {
	ids := make([]chain.TokenID, len(d.Pairs))
	for i, p := range d.Pairs {
		ids[i] = p.Token
	}
	return chain.NewTokenSet(ids...)
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Ring != ps[j].Ring {
			return ps[i].Ring < ps[j].Ring
		}
		return ps[i].Token < ps[j].Token
	})
}

func pairKey(ps []Pair) string {
	b := make([]byte, 0, len(ps)*8)
	for _, p := range ps {
		b = append(b,
			byte(p.Ring), byte(p.Ring>>8), byte(p.Ring>>16), byte(p.Ring>>24),
			byte(p.Token), byte(p.Token>>8), byte(p.Token>>16), byte(p.Token>>24))
	}
	return string(b)
}

// contains reports whether assignment a is consistent with every pair in ps.
func contains(a rsgraph.Assignment, ps []Pair) bool {
	for _, p := range ps {
		if a[p.Ring] != p.Token {
			return false
		}
	}
	return true
}

// Exact enumerates all DTRSs of ring `target` (index into in.Rings) by
// Algorithm 3: candidates are subsets of pairs drawn from each token-RS
// combination (excluding the target's own pair); a candidate is a true DTRS
// when every combination containing it gives the target a consumed token
// from the same HT, and no strict subset already does.
//
// The empty DTRS is returned alone when the target's consumed-token HT is
// already determined without any side information (the homogeneity case).
func Exact(in *rsgraph.Instance, target int, origin func(chain.TokenID) chain.TxID, opts rsgraph.EnumOptions) ([]DTRS, error) {
	if target < 0 || target >= len(in.Rings) {
		return nil, fmt.Errorf("dtrs: target ring %d out of range", target)
	}
	combos, err := in.AllCombinations(opts)
	if err != nil {
		return nil, err
	}
	if len(combos) == 0 {
		return nil, rsgraph.ErrNoAssignment
	}

	// Homogeneity short-circuit: HT determined with no side information.
	allSame := true
	first := origin(combos[0][target])
	for _, u := range combos[1:] {
		if origin(u[target]) != first {
			allSame = false
			break
		}
	}
	if allSame {
		return []DTRS{{Pairs: nil, Determines: first}}, nil
	}

	n := len(in.Rings)
	var accepted []DTRS
	acceptedKeys := make(map[string]bool)

	// hasAcceptedSubset reports whether some already-accepted DTRS is a
	// subset of candidate — in that case candidate is not minimal.
	hasAcceptedSubset := func(cand []Pair) bool {
		for _, d := range accepted {
			sub := true
			for _, p := range d.Pairs {
				found := false
				for _, q := range cand {
					if p == q {
						found = true
						break
					}
				}
				if !found {
					sub = false
					break
				}
			}
			if sub {
				return true
			}
		}
		return false
	}

	// valid checks the Algorithm 3 filter: every combination containing the
	// candidate must give the target a consumed token with one single HT.
	valid := func(cand []Pair) (chain.TxID, bool) {
		var dh chain.TxID
		seen := false
		for _, u := range combos {
			if !contains(u, cand) {
				continue
			}
			ht := origin(u[target])
			if !seen {
				dh, seen = ht, true
			} else if ht != dh {
				return chain.NoTx, false
			}
		}
		if !seen {
			return chain.NoTx, false
		}
		return dh, true
	}

	// Iterate candidate sizes ascending so minimality is "no accepted
	// subset"; candidates of size i come from the pairs of each combination.
	for size := 1; size < n; size++ {
		tried := make(map[string]bool)
		for _, u := range combos {
			// Pairs of u excluding the target's own pair.
			pairs := make([]Pair, 0, n-1)
			for ri, tok := range u {
				if ri != target {
					pairs = append(pairs, Pair{Ring: ri, Token: tok})
				}
			}
			forEachSubset(pairs, size, func(cand []Pair) {
				cs := make([]Pair, len(cand))
				copy(cs, cand)
				sortPairs(cs)
				key := pairKey(cs)
				if tried[key] || acceptedKeys[key] {
					return
				}
				tried[key] = true
				if hasAcceptedSubset(cs) {
					return
				}
				if dh, ok := valid(cs); ok {
					accepted = append(accepted, DTRS{Pairs: cs, Determines: dh})
					acceptedKeys[key] = true
				}
			})
		}
	}
	return accepted, nil
}

// forEachSubset invokes f on every size-k subset of ps. f must not retain the
// slice it is handed.
func forEachSubset(ps []Pair, k int, f func([]Pair)) {
	if k > len(ps) {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	buf := make([]Pair, k)
	for {
		for i, j := range idx {
			buf[i] = ps[j]
		}
		f(buf)
		// Advance combination indices.
		i := k - 1
		for i >= 0 && idx[i] == len(ps)-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// AllSatisfyExact checks Definition 4's second condition exactly: every DTRS
// of the target ring has an HT multiset satisfying req. Exponential; small
// instances only.
func AllSatisfyExact(in *rsgraph.Instance, target int, origin func(chain.TokenID) chain.TxID, req diversity.Requirement, opts rsgraph.EnumOptions) (bool, error) {
	ds, err := Exact(in, target, origin, opts)
	if err != nil {
		return false, err
	}
	for _, d := range ds {
		if !diversity.SatisfiesTokens(d.Tokens(), origin, req) {
			return false, nil
		}
	}
	return true, nil
}

// AllSatisfyClosedForm checks Definition 4's second condition in polynomial
// time under the first practical configuration: every realisable ψ(i,j) must
// satisfy req. This is the production check used by the miners and selectors.
//
// It evaluates each ψ(i,j) = ring \ T̃(h_j) directly on the ring's incremental
// HT histogram: dropping T̃(h_j) is dropping one whole histogram class, which
// Histogram.SlackWithout reads off the count-of-counts index without
// materialising any ψ token set (the former path built one histogram and one
// TokenSet per class). ringTokens is only read, never modified.
func AllSatisfyClosedForm(ringTokens chain.TokenSet, subsetCount int, origin func(chain.TokenID) chain.TxID, req diversity.Requirement) bool {
	h := diversity.HistogramOf(ringTokens, origin)
	ok := true
	h.Each(func(cls, n int) bool {
		if subsetCount < len(ringTokens)-n+1 {
			return true // Theorem 6.1: no DTRS can determine this HT
		}
		if h.SlackWithout(req, cls) >= 0 {
			ok = false
			return false
		}
		return true
	})
	return ok
}
