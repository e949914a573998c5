package workload

import (
	"errors"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/selector"
)

func TestRealMoneroAggregates(t *testing.T) {
	d, err := RealMonero(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Ledger.NumTxs(); got != RealTxCount {
		t.Fatalf("txs = %d, want %d", got, RealTxCount)
	}
	if got := d.Ledger.NumTokens(); got != RealTokenCount {
		t.Fatalf("tokens = %d, want %d", got, RealTokenCount)
	}
	if got := d.Ledger.NumRS(); got != RealSuperCount {
		t.Fatalf("rings = %d, want %d", got, RealSuperCount)
	}
	for _, r := range d.Rings() {
		if len(r.Tokens) != RealRingSize {
			t.Fatalf("ring %v size = %d, want %d", r.ID, len(r.Tokens), RealRingSize)
		}
	}
	if len(d.FreshTokens) != RealFreshCount {
		t.Fatalf("fresh = %d, want %d", len(d.FreshTokens), RealFreshCount)
	}
	if len(d.Universe) != RealTokenCount {
		t.Fatalf("universe = %d", len(d.Universe))
	}
}

func TestRealMoneroRingsDisjoint(t *testing.T) {
	d, err := RealMonero(2)
	if err != nil {
		t.Fatal(err)
	}
	rings := d.Rings()
	for i := range rings {
		for j := i + 1; j < len(rings); j++ {
			if !rings[i].Tokens.Disjoint(rings[j].Tokens) {
				t.Fatalf("rings %d and %d overlap", i, j)
			}
		}
		if !rings[i].Tokens.Disjoint(d.FreshTokens) {
			t.Fatalf("ring %d overlaps fresh tokens", i)
		}
	}
}

func TestRealMoneroFigure3Shape(t *testing.T) {
	d, err := RealMonero(3)
	if err != nil {
		t.Fatal(err)
	}
	h := d.OutputHistogram()
	// Figure 3: the mode is 2 outputs per transaction, by a wide margin.
	mode, modeCount := 0, 0
	for k, c := range h {
		if c > modeCount {
			mode, modeCount = k, c
		}
	}
	if mode != 2 {
		t.Fatalf("modal output count = %d (histogram %v), want 2", mode, h)
	}
	if modeCount < 200 {
		t.Fatalf("2-output txs = %d, want the large majority", modeCount)
	}
	// Max outputs per HT stays within Monero's observed bound of 16.
	for k := range h {
		if k > 16 {
			t.Fatalf("output count %d exceeds Monero's max of 16", k)
		}
	}
}

func TestRealMoneroDeterministicPerSeed(t *testing.T) {
	a, err := RealMonero(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RealMonero(7)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range a.Rings() {
		if !r.Tokens.Equal(b.Rings()[i].Tokens) {
			t.Fatalf("seeded generation must be deterministic (ring %d)", i)
		}
	}
	c, err := RealMonero(8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i, r := range a.Rings() {
		if !r.Tokens.Equal(c.Rings()[i].Tokens) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should shuffle ring membership")
	}
}

func TestSyntheticDefaults(t *testing.T) {
	p := DefaultSynthetic()
	p.Seed = 42
	d, err := Synthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.SuperCount != 50 {
		t.Fatalf("supers = %d", d.SuperCount)
	}
	if len(d.FreshTokens) != 10 {
		t.Fatalf("fresh = %d", len(d.FreshTokens))
	}
	total := 0
	for _, r := range d.Rings() {
		sz := len(r.Tokens)
		if sz < 10 || sz > 20 {
			t.Fatalf("super size %d outside [10,20]", sz)
		}
		total += sz
	}
	if got := d.Ledger.NumTokens(); got != total+10 {
		t.Fatalf("tokens = %d, want supers(%d)+fresh(10)", got, total)
	}
	if len(d.Universe) != d.Ledger.NumTokens() {
		t.Fatalf("universe = %d", len(d.Universe))
	}
}

func TestSyntheticRingsDisjointAndDecomposable(t *testing.T) {
	p := DefaultSynthetic()
	p.Seed = 5
	d, err := Synthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	rings := d.Rings()
	for i := range rings {
		for j := i + 1; j < len(rings); j++ {
			if !rings[i].Tokens.Disjoint(rings[j].Tokens) {
				t.Fatalf("rings %d, %d overlap", i, j)
			}
		}
	}
	supers, fresh := selector.Decompose(rings, d.Universe)
	if len(supers) != p.NumSupers {
		t.Fatalf("Decompose found %d supers, want %d", len(supers), p.NumSupers)
	}
	if !fresh.Equal(d.FreshTokens) {
		t.Fatalf("Decompose fresh %v != dataset fresh %v", fresh, d.FreshTokens)
	}
}

func TestSyntheticSigmaControlsHTSpread(t *testing.T) {
	lo := DefaultSynthetic()
	lo.Sigma, lo.Seed = 2, 9
	hi := DefaultSynthetic()
	hi.Sigma, hi.Seed = 30, 9
	dl, err := Synthetic(lo)
	if err != nil {
		t.Fatal(err)
	}
	dh, err := Synthetic(hi)
	if err != nil {
		t.Fatal(err)
	}
	if dl.Ledger.NumTxs() >= dh.Ledger.NumTxs() {
		t.Fatalf("σ=2 gave %d HTs, σ=30 gave %d; larger σ must spread more",
			dl.Ledger.NumTxs(), dh.Ledger.NumTxs())
	}
}

func TestSyntheticDeterministicPerSeed(t *testing.T) {
	p := DefaultSynthetic()
	p.Seed = 11
	a, err := Synthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ledger.NumTxs() != b.Ledger.NumTxs() {
		t.Fatalf("HT counts differ: %d vs %d", a.Ledger.NumTxs(), b.Ledger.NumTxs())
	}
	originA, originB := a.Origin(), b.Origin()
	for _, tok := range a.Universe {
		if originA(tok) != originB(tok) {
			t.Fatalf("token %v origin differs between equal-seed runs", tok)
		}
	}
	for i, r := range a.Rings() {
		if !r.Tokens.Equal(b.Rings()[i].Tokens) {
			t.Fatalf("ring %d differs between equal-seed runs", i)
		}
	}
}

func TestSyntheticParamValidation(t *testing.T) {
	bad := []SyntheticParams{
		{NumSupers: -1, SuperSizeMin: 1, SuperSizeMax: 2, Sigma: 1},
		{NumSupers: 1, SuperSizeMin: 0, SuperSizeMax: 2, Sigma: 1},
		{NumSupers: 1, SuperSizeMin: 3, SuperSizeMax: 2, Sigma: 1},
		{NumSupers: 1, SuperSizeMin: 1, SuperSizeMax: 2, Sigma: 0},
		{NumSupers: 1, SuperSizeMin: 1, SuperSizeMax: 2, Sigma: 1, NumFresh: -1},
	}
	for _, p := range bad {
		if _, err := Synthetic(p); !errors.Is(err, ErrBadParams) {
			t.Errorf("Synthetic(%+v) err = %v, want ErrBadParams", p, err)
		}
	}
}

func TestSmallScale(t *testing.T) {
	d, err := SmallScale(SmallScaleParams{Tokens: 20, HTs: 7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Ledger.NumTokens(); got != 20 {
		t.Fatalf("tokens = %d", got)
	}
	if got := d.Ledger.NumTxs(); got != 7 {
		t.Fatalf("HTs = %d", got)
	}
	if d.Ledger.NumRS() != 0 {
		t.Fatal("small-scale set starts with no rings")
	}
	if _, err := SmallScale(SmallScaleParams{Tokens: 2, HTs: 5}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("HTs > Tokens must error, got %v", err)
	}
}

func TestOriginCoversAllTokens(t *testing.T) {
	d, err := RealMonero(4)
	if err != nil {
		t.Fatal(err)
	}
	origin := d.Origin()
	for _, tok := range d.Universe {
		if origin(tok) == chain.NoTx {
			t.Fatalf("token %v has no origin", tok)
		}
	}
}

// TestNestedShape checks Nested's contract: deterministic per seed, one
// batch of lambda tokens, every ring either new or a strict superset of an
// earlier ring, and the fresh tokens exactly the ones no ring holds.
func TestNestedShape(t *testing.T) {
	d, err := Nested(800, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Nested(800, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	rings := d.Rings()
	if len(d.Universe) != 800 || len(rings) != 400 {
		t.Fatalf("universe %d, rings %d; want 800, 400", len(d.Universe), len(rings))
	}
	covered := chain.TokenSet{}
	nested := 0
	for i, r := range rings {
		if !r.Tokens.Equal(again.Rings()[i].Tokens) {
			t.Fatalf("ring %d differs between two builds of one seed", i)
		}
		for _, prev := range rings[:i] {
			if prev.Tokens.SubsetOf(r.Tokens) {
				nested++
				break
			}
		}
		covered = covered.Union(r.Tokens)
	}
	if nested < 300 {
		t.Fatalf("%d of 400 rings extend an earlier ring, want most", nested)
	}
	if !d.FreshTokens.Equal(d.Universe.Minus(covered)) {
		t.Fatal("FreshTokens is not the universe minus every ring")
	}
	supers, _ := selector.Decompose(rings, d.Universe)
	if len(supers) != d.SuperCount {
		t.Fatalf("SuperCount %d, Decompose finds %d", d.SuperCount, len(supers))
	}
	if _, err := Nested(10, 400, 1); !errors.Is(err, ErrBadParams) {
		t.Fatalf("exhausted fresh tokens: err %v, want ErrBadParams", err)
	}
}
