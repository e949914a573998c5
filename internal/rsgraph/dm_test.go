package rsgraph

import (
	"math/rand"
	"reflect"
	"testing"

	"tokenmagic/internal/chain"
)

// randomInstance builds a random bipartite instance: nRings rings of size
// 1..maxSize over a universe of nTokens tokens.
func randomInstance(rng *rand.Rand, nRings, nTokens, maxSize int) *Instance {
	rings := make([]Ring, nRings)
	for i := range rings {
		size := 1 + rng.Intn(maxSize)
		ids := make([]chain.TokenID, size)
		for j := range ids {
			ids[j] = chain.TokenID(rng.Intn(nTokens))
		}
		rings[i] = Ring{ID: chain.RSID(i), Tokens: chain.NewTokenSet(ids...)}
	}
	return NewInstance(rings)
}

// TestDMEquivalentToExactProbes is the load-bearing differential test: over
// random instances, the DM-derived admissible sets must equal the exact
// per-edge matching probes, the DM square-region tokens must equal the
// exact provably-consumed closure, and AllAdmissible must equal the
// probe-based non-eliminated constraint.
func TestDMEquivalentToExactProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 400; trial++ {
		nRings := 1 + rng.Intn(10)
		nTokens := 1 + rng.Intn(14)
		in := randomInstance(rng, nRings, nTokens, 4)
		d := in.Decompose()

		if d.Saturated != in.HasAssignment() {
			t.Fatalf("trial %d: Saturated=%v, HasAssignment=%v\n%+v",
				trial, d.Saturated, in.HasAssignment(), in.Rings)
		}
		exact := in.FeasibleSpent()
		want := in.HasAssignment()
		for i, r := range in.Rings {
			if len(exact[i]) != len(r.Tokens) {
				want = false
			}
		}
		if got := d.AllAdmissible(); got != want {
			t.Fatalf("trial %d: AllAdmissible=%v, exact=%v\nrings: %+v",
				trial, got, want, in.Rings)
		}
		if !d.Saturated {
			// Contract: untouched sets, nothing proven.
			for i, r := range in.Rings {
				if !d.Feasible()[i].Equal(r.Tokens) {
					t.Fatalf("trial %d: unsaturated instance must report untouched sets", trial)
				}
			}
			if len(d.ProvablyConsumed()) != 0 {
				t.Fatalf("trial %d: unsaturated instance proved consumption", trial)
			}
			continue
		}

		for i := range in.Rings {
			if !d.Feasible()[i].Equal(exact[i]) {
				t.Fatalf("trial %d ring %d: DM feasible %v != exact %v\nrings: %+v",
					trial, i, d.Feasible()[i], exact[i], in.Rings)
			}
		}
		if got, want := d.ProvablyConsumed(), in.ProvablyConsumed(); !got.Equal(want) {
			t.Fatalf("trial %d: DM consumed %v != exact %v\nrings: %+v",
				trial, got, want, in.Rings)
		}
	}
}

func TestDMTracedSingleton(t *testing.T) {
	// Ring 0 is a singleton: traced, its token provably consumed, and the
	// token must vanish from ring 1's admissible set.
	in := NewInstance([]Ring{
		{ID: 0, Tokens: chain.NewTokenSet(0)},
		{ID: 1, Tokens: chain.NewTokenSet(0, 1, 2)},
	})
	d := in.Decompose()
	if !d.Saturated {
		t.Fatal("instance is feasible")
	}
	if got := d.TracedRings(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("traced = %v, want [0]", got)
	}
	if !d.ProvablyConsumed().Equal(chain.NewTokenSet(0)) {
		t.Fatalf("consumed = %v", d.ProvablyConsumed())
	}
	if !d.Feasible()[1].Equal(chain.NewTokenSet(1, 2)) {
		t.Fatalf("ring 1 feasible = %v", d.Feasible()[1])
	}
	if len(d.feasible[0]) != 1 || len(d.feasible[1]) != 2 {
		t.Fatalf("effective sizes = %d, %d", len(d.feasible[0]), len(d.feasible[1]))
	}
}

func TestDMSquareCycleStaysAmbiguous(t *testing.T) {
	// Two rings over the same two tokens: a perfect alternating cycle. Both
	// tokens are provably consumed (square region), but neither ring is
	// traced — both edges are admissible inside one block.
	in := NewInstance([]Ring{
		{ID: 0, Tokens: chain.NewTokenSet(0, 1)},
		{ID: 1, Tokens: chain.NewTokenSet(0, 1)},
	})
	d := in.Decompose()
	if !d.ProvablyConsumed().Equal(chain.NewTokenSet(0, 1)) {
		t.Fatalf("consumed = %v", d.ProvablyConsumed())
	}
	if len(d.TracedRings()) != 0 {
		t.Fatalf("traced = %v, want none", d.TracedRings())
	}
	if d.SquareBlocks != 1 {
		t.Fatalf("square blocks = %d, want 1", d.SquareBlocks)
	}
	for i := range in.Rings {
		if len(d.feasible[i]) != 2 {
			t.Fatalf("ring %d effective size = %d", i, len(d.feasible[i]))
		}
	}
}

func TestDMUnderRegionProvesNothing(t *testing.T) {
	// One ring over two tokens with a spare third: everything ambiguous,
	// nothing consumed, ring in the underconstrained region.
	in := NewInstance([]Ring{
		{ID: 0, Tokens: chain.NewTokenSet(0, 1)},
	})
	d := in.Decompose()
	if len(d.ProvablyConsumed()) != 0 {
		t.Fatalf("consumed = %v, want none", d.ProvablyConsumed())
	}
	if d.UnderRings() != 1 {
		t.Fatalf("under rings = %d", d.UnderRings())
	}
	if d.RingRegion[0] != Under {
		t.Fatalf("ring region = %v", d.RingRegion[0])
	}
}

func TestDMOverconstrained(t *testing.T) {
	// Two rings forced onto one token: no combination exists.
	in := NewInstance([]Ring{
		{ID: 0, Tokens: chain.NewTokenSet(0)},
		{ID: 1, Tokens: chain.NewTokenSet(0)},
	})
	d := in.Decompose()
	if d.Saturated {
		t.Fatal("instance must be unsaturated")
	}
	over := 0
	for _, reg := range d.RingRegion {
		if reg == Over {
			over++
		}
	}
	if over == 0 {
		t.Fatalf("no ring classified overconstrained: %v", d.RingRegion)
	}
}

func TestDMDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := randomInstance(rng, 12, 16, 4)
	a, b := in.Decompose(), in.Decompose()
	if !reflect.DeepEqual(a.Feasible(), b.Feasible()) ||
		!reflect.DeepEqual(a.Block, b.Block) ||
		!reflect.DeepEqual(a.RingRegion, b.RingRegion) {
		t.Fatal("Decompose is not deterministic")
	}
}

func TestDMRegionString(t *testing.T) {
	for reg, want := range map[Region]string{Square: "square", Under: "under", Over: "over", Region(9): "invalid"} {
		if reg.String() != want {
			t.Fatalf("Region(%d).String() = %q, want %q", reg, reg.String(), want)
		}
	}
}

func BenchmarkDMDecompose(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	in := randomInstance(rng, 200, 400, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Decompose()
	}
}

func BenchmarkExactFeasibleSpent(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	in := randomInstance(rng, 200, 400, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.FeasibleSpent()
	}
}
