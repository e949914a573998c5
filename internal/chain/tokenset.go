package chain

import "slices"

// TokenSet is a sorted, duplicate-free slice of TokenIDs. The solvers treat a
// ring signature as a TokenSet (its consumed token plus mixins), so set
// algebra here is on every hot path. All operations keep the sorted invariant
// and none mutate their receivers unless documented.
type TokenSet []TokenID

// NewTokenSet builds a TokenSet from arbitrary (possibly unsorted,
// possibly duplicated) ids.
func NewTokenSet(ids ...TokenID) TokenSet {
	s := make(TokenSet, len(ids))
	copy(s, ids)
	slices.Sort(s)
	return s.dedup()
}

func (s TokenSet) dedup() TokenSet {
	if len(s) < 2 {
		return s
	}
	out := s[:1]
	for _, id := range s[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// Clone returns an independent copy of s.
func (s TokenSet) Clone() TokenSet {
	out := make(TokenSet, len(s))
	copy(out, s)
	return out
}

// Contains reports whether id is a member of s.
func (s TokenSet) Contains(id TokenID) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == id
}

// Union returns s ∪ t as a new TokenSet.
func (s TokenSet) Union(t TokenSet) TokenSet {
	out := make(TokenSet, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Intersect returns s ∩ t as a new TokenSet.
func (s TokenSet) Intersect(t TokenSet) TokenSet {
	var out TokenSet
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Minus returns s \ t as a new TokenSet.
func (s TokenSet) Minus(t TokenSet) TokenSet {
	var out TokenSet
	i, j := 0, 0
	for i < len(s) {
		for j < len(t) && t[j] < s[i] {
			j++
		}
		if j >= len(t) || t[j] != s[i] {
			out = append(out, s[i])
		}
		i++
	}
	return out
}

// Remove returns s \ {id} as a new TokenSet.
func (s TokenSet) Remove(id TokenID) TokenSet {
	var out TokenSet
	for _, v := range s {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}

// Add returns s ∪ {id} as a new TokenSet.
func (s TokenSet) Add(id TokenID) TokenSet {
	if s.Contains(id) {
		return s.Clone()
	}
	out := make(TokenSet, 0, len(s)+1)
	inserted := false
	for _, v := range s {
		if !inserted && id < v {
			out = append(out, id)
			inserted = true
		}
		out = append(out, v)
	}
	if !inserted {
		out = append(out, id)
	}
	return out
}

// SubsetOf reports whether every member of s belongs to t.
func (s TokenSet) SubsetOf(t TokenSet) bool {
	i, j := 0, 0
	for i < len(s) {
		for j < len(t) && t[j] < s[i] {
			j++
		}
		if j >= len(t) || t[j] != s[i] {
			return false
		}
		i++
		j++
	}
	return true
}

// Disjoint reports whether s and t share no members. Sets whose ranges do
// not overlap are settled from their ends. When one set is at least
// disjointSkew times smaller, its members are binary-searched in the
// larger one — a ring against a λ-token batch universe costs O(|ring| log λ)
// instead of a walk over the whole universe. Otherwise the two are merged.
func (s TokenSet) Disjoint(t TokenSet) bool {
	if len(s) == 0 || len(t) == 0 || s[len(s)-1] < t[0] || t[len(t)-1] < s[0] {
		return true
	}
	if len(s) > len(t) {
		s, t = t, s
	}
	if len(s)*disjointSkew <= len(t) {
		// s is sorted, so each search starts where the last one ended.
		lo := 0
		for _, id := range s {
			k, found := slices.BinarySearch(t[lo:], id)
			if found {
				return false
			}
			if lo += k; lo == len(t) {
				return true
			}
		}
		return true
	}
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			return false
		}
	}
	return true
}

// disjointSkew is the size ratio from which Disjoint binary-searches the
// smaller set's members instead of merging.
const disjointSkew = 8

// Equal reports whether s and t contain exactly the same members.
func (s TokenSet) Equal(t TokenSet) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}
