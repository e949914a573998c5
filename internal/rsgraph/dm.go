package rsgraph

import (
	"tokenmagic/internal/chain"
)

// Dulmage–Mendelsohn decomposition of the ring-token bipartite graph.
//
// Chain-reaction analysis asks, for every (ring, token) edge, whether the
// edge survives in at least one token-RS combination (Definition 6). The
// exact routines in this package answer that with one matching-feasibility
// probe per edge (FeasibleSpent), which is polynomial but quadratic-ish in
// practice. The DM decomposition answers the same question structurally,
// from ONE maximum matching plus two linear passes, by classifying the
// graph into:
//
//   - the underconstrained (horizontal) region: vertices reachable from an
//     unconsumed token by an alternating path. Tokens here can be freed by
//     some combination — none of them is provably consumed — and every
//     ring-token edge pointing at such a token is admissible.
//   - the overconstrained (vertical) region: vertices reachable from an
//     unmatched ring. Non-empty iff the instance has no token-RS
//     combination at all (a degenerate ledger).
//   - the square (perfectly constrained) region: the rest. Every token here
//     is consumed in EVERY combination — these are the provably-consumed
//     tokens of the exact closure. The square region decomposes further
//     into strongly connected blocks of the matching digraph; an edge
//     (r, t) inside the square region is admissible iff r and t fall in the
//     same block, and a block containing exactly one ring pins that ring to
//     its matched token — the ring is traced.
//
// The equivalences with the probe-based exact routines (FeasibleSpent,
// ProvablyConsumed) are asserted by differential and fuzz tests; the
// adversary package's Theorem-4.1 cascade is a strict under-approximation
// of both.
type DM struct {
	in *Instance

	// Saturated reports whether a token-RS combination exists (every ring
	// matched). When false the decomposition still classifies regions, but
	// no sound elimination facts follow and Feasible returns the untouched
	// token sets — an adversary cannot derive facts from a contradictory
	// view (same contract as adversary.ChainReaction).
	Saturated bool

	// MatchedToken holds one maximum matching: the token ring i consumes in
	// it, or chain.NoToken when ring i is unmatched.
	MatchedToken []chain.TokenID

	// RingRegion[i] classifies ring i; TokenRegion classifies every token
	// of UnionTokens() (keyed densely via tokIndex).
	RingRegion []Region

	// Block[i] is the fine-decomposition block id of ring i: square rings
	// get their SCC id in the matching digraph, rings in the
	// under/overconstrained regions get -1.
	Block []int

	// SquareBlocks is the number of strongly connected blocks the square
	// region splits into.
	SquareBlocks int

	tokens    chain.TokenSet // sorted union of all ring tokens
	tokIndex  map[chain.TokenID]int
	tokRegion []Region
	matchRing []int // token index -> matched ring, -1 if free
	feasible  []chain.TokenSet
	consumed  chain.TokenSet
}

// Region labels one side of the coarse DM decomposition.
type Region int8

// Coarse DM regions.
const (
	Square Region = iota // perfectly constrained
	Under                // underconstrained (horizontal)
	Over                 // overconstrained (vertical; only on infeasible instances)
)

func (r Region) String() string {
	switch r {
	case Square:
		return "square"
	case Under:
		return "under"
	case Over:
		return "over"
	}
	return "invalid"
}

// Decompose computes the Dulmage–Mendelsohn decomposition of the instance.
// Cost: one maximum matching (Kuhn) plus O(V+E) classification — no
// per-edge feasibility probes. All iteration is over index order, so the
// result is deterministic for a given instance.
func (in *Instance) Decompose() *DM {
	d := &DM{in: in}
	d.tokens = in.UnionTokens()
	d.tokIndex = make(map[chain.TokenID]int, len(d.tokens))
	for i, t := range d.tokens {
		d.tokIndex[t] = i
	}

	// Token -> adjacent rings, in ring order.
	adj := make([][]int, len(d.tokens))
	for ri, r := range in.Rings {
		for _, t := range r.Tokens {
			ti := d.tokIndex[t]
			adj[ti] = append(adj[ti], ri)
		}
	}

	// One maximum matching, Kuhn's algorithm over index order.
	matchOfRing := make([]int, len(in.Rings)) // ring -> token index
	for i := range matchOfRing {
		matchOfRing[i] = -1
	}
	d.matchRing = make([]int, len(d.tokens)) // token index -> ring
	for i := range d.matchRing {
		d.matchRing[i] = -1
	}
	seen := make([]int, len(d.tokens)) // visited stamp per augmenting pass
	for i := range seen {
		seen[i] = -1
	}
	var try func(ri, stamp int) bool
	try = func(ri, stamp int) bool {
		for _, t := range in.Rings[ri].Tokens {
			ti := d.tokIndex[t]
			if seen[ti] == stamp {
				continue
			}
			seen[ti] = stamp
			if prev := d.matchRing[ti]; prev == -1 || try(prev, stamp) {
				d.matchRing[ti] = ri
				matchOfRing[ri] = ti
				return true
			}
		}
		return false
	}
	matched := 0
	for ri := range in.Rings {
		if try(ri, ri) {
			matched++
		}
	}
	d.Saturated = matched == len(in.Rings)
	d.MatchedToken = make([]chain.TokenID, len(in.Rings))
	for ri, ti := range matchOfRing {
		if ti == -1 {
			d.MatchedToken[ri] = chain.NoToken
		} else {
			d.MatchedToken[ri] = d.tokens[ti]
		}
	}

	// Coarse regions. Underconstrained: alternating BFS from free tokens
	// (unmatched edge token→ring, matched edge ring→token). Tokens in this
	// region are exactly the tokens some combination leaves unconsumed.
	d.tokRegion = make([]Region, len(d.tokens))
	d.RingRegion = make([]Region, len(in.Rings))
	var queue []int
	for ti := range d.tokens {
		if d.matchRing[ti] == -1 {
			d.tokRegion[ti] = Under
			queue = append(queue, ti)
		}
	}
	for len(queue) > 0 {
		ti := queue[0]
		queue = queue[1:]
		for _, ri := range adj[ti] {
			if matchOfRing[ri] == ti || d.RingRegion[ri] == Under {
				continue
			}
			d.RingRegion[ri] = Under
			if mt := matchOfRing[ri]; mt != -1 && d.tokRegion[mt] != Under {
				d.tokRegion[mt] = Under
				queue = append(queue, mt)
			}
		}
	}
	// Overconstrained: alternating BFS from unmatched rings (any edge
	// ring→token, matched edge token→ring). Empty when Saturated.
	var rqueue []int
	for ri := range in.Rings {
		if matchOfRing[ri] == -1 {
			d.RingRegion[ri] = Over
			rqueue = append(rqueue, ri)
		}
	}
	for len(rqueue) > 0 {
		ri := rqueue[0]
		rqueue = rqueue[1:]
		for _, t := range in.Rings[ri].Tokens {
			ti := d.tokIndex[t]
			if d.tokRegion[ti] == Over {
				continue
			}
			d.tokRegion[ti] = Over
			if mr := d.matchRing[ti]; mr != -1 && d.RingRegion[mr] != Over {
				d.RingRegion[mr] = Over
				rqueue = append(rqueue, mr)
			}
		}
	}

	d.fineBlocks(matchOfRing, adj)
	d.deriveFeasible(matchOfRing)
	return d
}

// fineBlocks splits the square region into strongly connected blocks of the
// matching digraph. Each square token is contracted into the ring that
// consumes it, leaving a digraph on rings alone: r → r' iff ring r' could
// also consume r's matched token. A directed cycle in that digraph is an
// alternating cycle of the bipartite graph — the exchange that realises an
// alternative combination — so edges inside one block are admissible and
// edges crossing blocks are not. Iterative Tarjan, index order, so block
// ids are deterministic.
func (d *DM) fineBlocks(matchOfRing []int, adj [][]int) {
	n := len(d.in.Rings)
	d.Block = make([]int, n)
	for i := range d.Block {
		d.Block[i] = -1
	}
	succ := func(ri int) []int {
		// Successors of square ring ri: square rings adjacent to its
		// matched token, excluding itself.
		ti := matchOfRing[ri]
		if ti == -1 {
			return nil
		}
		var out []int
		for _, rj := range adj[ti] {
			if rj != ri && d.RingRegion[rj] == Square {
				out = append(out, rj)
			}
		}
		return out
	}

	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0
	type frame struct {
		ri   int
		succ []int
		pos  int
	}
	for start := range d.in.Rings {
		if d.RingRegion[start] != Square || index[start] != -1 {
			continue
		}
		var frames []frame
		push := func(ri int) {
			index[ri] = next
			low[ri] = next
			next++
			stack = append(stack, ri)
			onStack[ri] = true
			frames = append(frames, frame{ri: ri, succ: succ(ri)})
		}
		push(start)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.pos < len(f.succ) {
				w := f.succ[f.pos]
				f.pos++
				if index[w] == -1 {
					push(w)
				} else if onStack[w] && index[w] < low[f.ri] {
					low[f.ri] = index[w]
				}
				continue
			}
			// f exhausted: close SCC if root, propagate lowlink.
			if low[f.ri] == index[f.ri] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					d.Block[w] = d.SquareBlocks
					if w == f.ri {
						break
					}
				}
				d.SquareBlocks++
			}
			done := *f
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[done.ri] < low[parent.ri] {
					low[parent.ri] = low[done.ri]
				}
			}
		}
	}
}

// deriveFeasible materialises the per-ring admissible-token sets and the
// provably-consumed closure from the decomposition. Edge (r, t) with
// t ≠ matched(r) is admissible iff t lies in the underconstrained region
// (an alternating path from an unconsumed token reaches t, so the exchange
// rematching r to t ends at a token nobody needs) or r and t's consuming
// ring share a square block (the exchange is an alternating cycle).
func (d *DM) deriveFeasible(matchOfRing []int) {
	n := len(d.in.Rings)
	d.feasible = make([]chain.TokenSet, n)
	if !d.Saturated {
		// No combination exists: report the untouched sets, prove nothing.
		for i, r := range d.in.Rings {
			d.feasible[i] = r.Tokens
		}
		d.consumed = nil
		return
	}
	for ri, r := range d.in.Rings {
		feas := make(chain.TokenSet, 0, len(r.Tokens))
		for _, t := range r.Tokens { // sorted, so feas stays sorted
			ti := d.tokIndex[t]
			switch {
			case matchOfRing[ri] == ti:
				feas = append(feas, t)
			case d.tokRegion[ti] == Under:
				feas = append(feas, t)
			case d.tokRegion[ti] == Square &&
				d.RingRegion[ri] == Square &&
				d.Block[ri] == d.Block[d.matchRing[ti]]:
				feas = append(feas, t)
			}
		}
		d.feasible[ri] = feas
	}
	for ti, t := range d.tokens { // sorted → consumed stays sorted
		if d.matchRing[ti] != -1 && d.tokRegion[ti] == Square {
			d.consumed = append(d.consumed, t)
		}
	}
}

// Feasible returns, for every ring, the tokens that can be its consumed
// token in at least one token-RS combination — equal, by the DM admissible-
// edge theorem, to Instance.FeasibleSpent, at a fraction of the cost. The
// returned slices are shared; do not mutate.
func (d *DM) Feasible() []chain.TokenSet { return d.feasible }

// ProvablyConsumed returns the tokens consumed in every token-RS
// combination: the matched square-region tokens. Equal to
// Instance.ProvablyConsumed.
func (d *DM) ProvablyConsumed() chain.TokenSet { return d.consumed }

// AllAdmissible reports whether a token-RS combination exists and every
// edge is admissible: no ring can have any of its tokens ruled out. This is
// the paper's non-eliminated constraint (Definition 5). Saturated is
// checked first because an unsaturated decomposition reports the token
// sets untouched.
func (d *DM) AllAdmissible() bool {
	if !d.Saturated {
		return false
	}
	for i, feas := range d.feasible {
		if len(feas) != len(d.in.Rings[i].Tokens) {
			return false
		}
	}
	return true
}

// TracedRings returns the indices of rings whose admissible set is a single
// token — the rings the decomposition fully de-anonymises.
func (d *DM) TracedRings() []int {
	var out []int
	for i, f := range d.feasible {
		if len(f) == 1 {
			out = append(out, i)
		}
	}
	return out
}

// UnderRings counts rings in the underconstrained region.
func (d *DM) UnderRings() int {
	n := 0
	for _, reg := range d.RingRegion {
		if reg == Under {
			n++
		}
	}
	return n
}
