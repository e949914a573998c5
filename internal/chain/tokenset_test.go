package chain

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewTokenSetSortsAndDedups(t *testing.T) {
	s := NewTokenSet(5, 3, 5, 1, 3, 9)
	want := TokenSet{1, 3, 5, 9}
	if !s.Equal(want) {
		t.Fatalf("got %v, want %v", s, want)
	}
	if !s.IsSorted() {
		t.Fatalf("invariant broken: %v", s)
	}
}

func TestTokenSetContains(t *testing.T) {
	s := NewTokenSet(2, 4, 6, 8)
	for _, id := range []TokenID{2, 4, 6, 8} {
		if !s.Contains(id) {
			t.Errorf("Contains(%v) = false, want true", id)
		}
	}
	for _, id := range []TokenID{1, 3, 5, 7, 9, -1, 100} {
		if s.Contains(id) {
			t.Errorf("Contains(%v) = true, want false", id)
		}
	}
	var empty TokenSet
	if empty.Contains(0) {
		t.Error("empty set should contain nothing")
	}
}

func TestTokenSetUnion(t *testing.T) {
	a := NewTokenSet(1, 3, 5)
	b := NewTokenSet(2, 3, 6)
	got := a.Union(b)
	want := TokenSet{1, 2, 3, 5, 6}
	if !got.Equal(want) {
		t.Fatalf("Union = %v, want %v", got, want)
	}
	if got := a.Union(nil); !got.Equal(a) {
		t.Fatalf("Union(nil) = %v, want %v", got, a)
	}
}

func TestTokenSetIntersect(t *testing.T) {
	a := NewTokenSet(1, 2, 3, 4)
	b := NewTokenSet(3, 4, 5)
	if got := a.Intersect(b); !got.Equal(TokenSet{3, 4}) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := a.Intersect(nil); len(got) != 0 {
		t.Fatalf("Intersect(nil) = %v, want empty", got)
	}
}

func TestTokenSetMinus(t *testing.T) {
	a := NewTokenSet(1, 2, 3, 4, 5)
	b := NewTokenSet(2, 4)
	if got := a.Minus(b); !got.Equal(TokenSet{1, 3, 5}) {
		t.Fatalf("Minus = %v", got)
	}
	if got := a.Minus(a); len(got) != 0 {
		t.Fatalf("Minus(self) = %v, want empty", got)
	}
}

func TestTokenSetAddRemove(t *testing.T) {
	s := NewTokenSet(1, 3)
	s2 := s.Add(2)
	if !s2.Equal(TokenSet{1, 2, 3}) {
		t.Fatalf("Add = %v", s2)
	}
	if !s.Equal(TokenSet{1, 3}) {
		t.Fatalf("Add mutated receiver: %v", s)
	}
	if got := s2.Add(2); !got.Equal(s2) {
		t.Fatalf("Add existing = %v", got)
	}
	if got := s2.Remove(2); !got.Equal(s) {
		t.Fatalf("Remove = %v", got)
	}
	if got := s2.Remove(99); !got.Equal(s2) {
		t.Fatalf("Remove missing = %v", got)
	}
	if got := s.Add(9); !got.Equal(TokenSet{1, 3, 9}) {
		t.Fatalf("Add at end = %v", got)
	}
}

func TestTokenSetSubsetDisjoint(t *testing.T) {
	a := NewTokenSet(2, 4)
	b := NewTokenSet(1, 2, 3, 4)
	c := NewTokenSet(5, 6)
	if !a.SubsetOf(b) {
		t.Error("a should be subset of b")
	}
	if b.SubsetOf(a) {
		t.Error("b should not be subset of a")
	}
	if !TokenSet(nil).SubsetOf(a) {
		t.Error("empty set is subset of everything")
	}
	if !a.Disjoint(c) {
		t.Error("a and c should be disjoint")
	}
	if a.Disjoint(b) {
		t.Error("a and b overlap")
	}
}

func randomTokenSet(r *rand.Rand, maxLen, maxVal int) TokenSet {
	n := r.Intn(maxLen + 1)
	ids := make([]TokenID, n)
	for i := range ids {
		ids[i] = TokenID(r.Intn(maxVal))
	}
	return NewTokenSet(ids...)
}

// sizedTokenSet draws exactly n distinct ids below maxVal.
func sizedTokenSet(r *rand.Rand, n, maxVal int) TokenSet {
	ids := make([]TokenID, n)
	for i, v := range r.Perm(maxVal)[:n] {
		ids[i] = TokenID(v)
	}
	return NewTokenSet(ids...)
}

// Property: union and minus satisfy (a ∪ b) \ b == a \ b for all sets.
func TestTokenSetAlgebraProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed ^ r.Int63()))
		a := randomTokenSet(rr, 20, 30)
		b := randomTokenSet(rr, 20, 30)
		u := a.Union(b)
		if !u.IsSorted() {
			return false
		}
		if !a.SubsetOf(u) || !b.SubsetOf(u) {
			return false
		}
		if !u.Minus(b).Equal(a.Minus(b)) {
			return false
		}
		inter := a.Intersect(b)
		if !inter.SubsetOf(a) || !inter.SubsetOf(b) {
			return false
		}
		// |a| + |b| == |a ∪ b| + |a ∩ b| (inclusion–exclusion).
		return len(a)+len(b) == len(u)+len(inter)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Disjoint(a,b) iff Intersect(a,b) is empty, in both argument
// orders. The generator covers every branch of Disjoint: dense sets of
// similar size (the merge), a ring of 1–16 tokens against a universe of
// 100–1000 (the binary search), and sets whose ranges are shifted apart
// so they may not overlap at all (the range check).
func TestTokenSetDisjointMatchesIntersect(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		var a, b TokenSet
		switch rr.Intn(3) {
		case 0:
			a = randomTokenSet(rr, 15, 20)
			b = randomTokenSet(rr, 15, 20)
		case 1:
			a = sizedTokenSet(rr, 1+rr.Intn(16), 2000)
			b = sizedTokenSet(rr, 100+rr.Intn(901), 2000)
		default:
			a = randomTokenSet(rr, 15, 50)
			b = randomTokenSet(rr, 15, 50)
			shift := TokenID(rr.Intn(100))
			for i := range b {
				b[i] += shift
			}
		}
		want := len(a.Intersect(b)) == 0
		return a.Disjoint(b) == want && b.Disjoint(a) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// IsSorted reports whether the sorted/duplicate-free invariant holds.
func (s TokenSet) IsSorted() bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}
