// Package rsgraph models the bipartite structure between ring signatures and
// tokens that chain-reaction analysis exploits. An "assignment" in this
// package is what the paper calls a token-RS combination (Definition 6): one
// consumed token per ring signature with no token consumed twice — a system
// of distinct representatives, equivalently a matching that saturates every
// ring. The paper's #P-hardness proof reduces counting such combinations to
// counting perfect matchings, so exact routines here are exponential by
// nature; they carry explicit work caps and fail loudly when exceeded.
package rsgraph

import (
	"errors"
	"fmt"
	"sort"

	"tokenmagic/internal/chain"
)

// Ring is a ring signature viewed purely as its token set plus identity.
type Ring struct {
	ID     chain.RSID
	Tokens chain.TokenSet
}

// Instance is a fixed collection of rings to analyse together, usually the
// related RS set of a candidate ring plus the candidate itself.
type Instance struct {
	Rings []Ring
}

// NewInstance copies the given rings into an Instance.
func NewInstance(rings []Ring) *Instance {
	out := &Instance{Rings: make([]Ring, len(rings))}
	copy(out.Rings, rings)
	return out
}

// FromRecords adapts ledger records into an Instance.
func FromRecords(records []chain.RingRecord) *Instance {
	inst := &Instance{Rings: make([]Ring, len(records))}
	for i, r := range records {
		inst.Rings[i] = Ring{ID: r.ID, Tokens: r.Tokens}
	}
	return inst
}

// Assignment maps ring index (position in Instance.Rings) to the token it
// consumes in one token-RS combination.
type Assignment []chain.TokenID

// Clone returns an independent copy.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	copy(out, a)
	return out
}

// Errors from exact enumeration.
var (
	ErrWorkCapExceeded = errors.New("rsgraph: combination enumeration exceeded work cap")
	ErrNoAssignment    = errors.New("rsgraph: no valid token-RS combination exists")
)

// EnumOptions bounds exact enumeration so callers cannot hang on #P-sized
// inputs by accident.
type EnumOptions struct {
	// MaxCombinations caps how many complete combinations are produced.
	// 0 means DefaultMaxCombinations.
	MaxCombinations int
	// MaxSteps caps backtracking node expansions. 0 means DefaultMaxSteps.
	MaxSteps int
}

// Enumeration caps. Exact analysis is meant for the small-scale experiments
// (Figure 4 uses ~20 tokens); production selection uses the closed-form
// Theorem 6.1 path instead.
const (
	DefaultMaxCombinations = 1 << 20
	DefaultMaxSteps        = 1 << 24
)

func (o EnumOptions) maxCombinations() int {
	if o.MaxCombinations > 0 {
		return o.MaxCombinations
	}
	return DefaultMaxCombinations
}

func (o EnumOptions) maxSteps() int {
	if o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return DefaultMaxSteps
}

// Combinations enumerates every token-RS combination of the instance,
// invoking yield for each. yield may return false to stop early (not an
// error). Rings are assigned in ascending order of ring size, which prunes
// dramatically on the paper's workloads; the emitted Assignment is always
// indexed by the original ring order.
func (in *Instance) Combinations(opts EnumOptions, yield func(Assignment) bool) error {
	n := len(in.Rings)
	if n == 0 {
		yield(Assignment{})
		return nil
	}
	// Order rings by increasing degree for fail-first search.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return len(in.Rings[order[a]].Tokens) < len(in.Rings[order[b]].Tokens)
	})

	used := make(map[chain.TokenID]bool)
	assign := make(Assignment, n)
	for i := range assign {
		assign[i] = chain.NoToken
	}
	steps := 0
	emitted := 0
	stopped := false

	var rec func(depth int) error
	rec = func(depth int) error {
		if stopped {
			return nil
		}
		steps++
		if steps > opts.maxSteps() {
			return fmt.Errorf("%w: steps > %d", ErrWorkCapExceeded, opts.maxSteps())
		}
		if depth == n {
			emitted++
			if emitted > opts.maxCombinations() {
				return fmt.Errorf("%w: combinations > %d", ErrWorkCapExceeded, opts.maxCombinations())
			}
			if !yield(assign.Clone()) {
				stopped = true
			}
			return nil
		}
		ri := order[depth]
		for _, t := range in.Rings[ri].Tokens {
			if used[t] {
				continue
			}
			used[t] = true
			assign[ri] = t
			if err := rec(depth + 1); err != nil {
				return err
			}
			used[t] = false
			assign[ri] = chain.NoToken
			if stopped {
				return nil
			}
		}
		return nil
	}
	return rec(0)
}

// AllCombinations collects every combination into a slice. Prefer
// Combinations when streaming suffices.
func (in *Instance) AllCombinations(opts EnumOptions) ([]Assignment, error) {
	var out []Assignment
	err := in.Combinations(opts, func(a Assignment) bool {
		out = append(out, a)
		return true
	})
	return out, err
}

// HasAssignment reports whether at least one token-RS combination exists,
// i.e. the rings admit a system of distinct representatives. Unlike full
// enumeration this is polynomial: it is a bipartite matching feasibility
// check via augmenting paths (Hall's condition made constructive).
func (in *Instance) HasAssignment() bool {
	m, ok := in.maximumMatching()
	_ = m
	return ok
}

// maximumMatching runs Kuhn's augmenting path algorithm; returns the
// matching (ring index → token) and whether it saturates all rings.
func (in *Instance) maximumMatching() (map[int]chain.TokenID, bool) {
	matchTok := make(map[chain.TokenID]int) // token -> ring index
	matched := 0
	var try func(ri int, seen map[chain.TokenID]bool) bool
	try = func(ri int, seen map[chain.TokenID]bool) bool {
		for _, t := range in.Rings[ri].Tokens {
			if seen[t] {
				continue
			}
			seen[t] = true
			if prev, ok := matchTok[t]; !ok || try(prev, seen) {
				matchTok[t] = ri
				return true
			}
		}
		return false
	}
	for ri := range in.Rings {
		if try(ri, make(map[chain.TokenID]bool)) {
			matched++
		}
	}
	out := make(map[int]chain.TokenID, matched)
	for t, ri := range matchTok {
		out[ri] = t
	}
	return out, matched == len(in.Rings)
}

// FeasibleSpent returns, for every ring, the set of tokens that can be its
// consumed token in at least one combination. The paper's non-eliminated
// constraint (Definition 5) holds iff FeasibleSpent(i) equals ring i's full
// token set for every i.
//
// Implementation: for each (ring, token) pair, force the pair and test
// matching feasibility of the rest — polynomial, unlike full enumeration.
func (in *Instance) FeasibleSpent() []chain.TokenSet {
	out := make([]chain.TokenSet, len(in.Rings))
	for i, r := range in.Rings {
		var feas chain.TokenSet
		for _, t := range r.Tokens {
			if in.feasibleWithForced(i, t) {
				feas = append(feas, t)
			}
		}
		out[i] = feas // tokens iterated in sorted order, so feas is sorted
	}
	return out
}

// feasibleWithForced checks whether a combination exists in which ring
// `forcedRing` consumes token `forcedTok`.
func (in *Instance) feasibleWithForced(forcedRing int, forcedTok chain.TokenID) bool {
	matchTok := map[chain.TokenID]int{forcedTok: forcedRing}
	var try func(ri int, seen map[chain.TokenID]bool) bool
	try = func(ri int, seen map[chain.TokenID]bool) bool {
		if ri == forcedRing {
			return false // forced ring cannot be reassigned
		}
		for _, t := range in.Rings[ri].Tokens {
			if t == forcedTok || seen[t] {
				continue
			}
			seen[t] = true
			if prev, ok := matchTok[t]; !ok || try(prev, seen) {
				matchTok[t] = ri
				return true
			}
		}
		return false
	}
	for ri := range in.Rings {
		if ri == forcedRing {
			continue
		}
		if !try(ri, make(map[chain.TokenID]bool)) {
			return false
		}
	}
	return true
}

// feasibleWithBanned checks whether a complete combination exists in which
// no ring consumes banned.
func (in *Instance) feasibleWithBanned(banned chain.TokenID) bool {
	matchTok := make(map[chain.TokenID]int)
	var try func(ri int, seen map[chain.TokenID]bool) bool
	try = func(ri int, seen map[chain.TokenID]bool) bool {
		for _, t := range in.Rings[ri].Tokens {
			if t == banned || seen[t] {
				continue
			}
			seen[t] = true
			if prev, ok := matchTok[t]; !ok || try(prev, seen) {
				matchTok[t] = ri
				return true
			}
		}
		return false
	}
	for ri := range in.Rings {
		if !try(ri, make(map[chain.TokenID]bool)) {
			return false
		}
	}
	return true
}

// ProvablyConsumed returns the tokens that are consumed in every token-RS
// combination of the instance — the exact closure that Theorem 4.1
// approximates. A token t is provably consumed iff no combination avoids it,
// i.e. matching with t banned is infeasible. Returns nil when the instance
// itself has no combination (degenerate ledgers prove nothing).
func (in *Instance) ProvablyConsumed() chain.TokenSet {
	if !in.HasAssignment() {
		return nil
	}
	var out chain.TokenSet
	for _, t := range in.UnionTokens() {
		if !in.feasibleWithBanned(t) {
			out = append(out, t) // UnionTokens is sorted → out stays sorted
		}
	}
	return out
}

// RelatedSet computes the related RS set of a candidate token set
// (Definition 1): the transitive closure, over token sharing, of the rings
// touching the candidate. The candidate itself is not included. Records must
// be in proposal order; all are considered "before π".
func RelatedSet(records []chain.RingRecord, candidate chain.TokenSet) []chain.RingRecord {
	inSet := make([]bool, len(records))
	frontier := candidate
	changed := true
	for changed {
		changed = false
		var grow chain.TokenSet
		for i, r := range records {
			if inSet[i] {
				continue
			}
			if !r.Tokens.Disjoint(frontier) {
				inSet[i] = true
				grow = grow.Union(r.Tokens)
				changed = true
			}
		}
		frontier = frontier.Union(grow)
	}
	var out []chain.RingRecord
	for i, r := range records {
		if inSet[i] {
			out = append(out, r)
		}
	}
	return out
}

// UnionTokens returns the union of all ring token sets in the instance:
// every ring token collected once, then sorted and deduplicated.
func (in *Instance) UnionTokens() chain.TokenSet {
	n := 0
	for _, r := range in.Rings {
		n += len(r.Tokens)
	}
	if n == 0 {
		return nil
	}
	all := make([]chain.TokenID, 0, n)
	for _, r := range in.Rings {
		all = append(all, r.Tokens...)
	}
	return chain.NewTokenSet(all...)
}
