package sim

import (
	"errors"
	"testing"

	"tokenmagic/internal/diversity"
	itm "tokenmagic/internal/tokenmagic"
)

func TestRunDefaultMix(t *testing.T) {
	res, err := Run(Config{
		Tokens:        60,
		Sigma:         8,
		Strategies:    DefaultMix(),
		Spends:        40,
		SnapshotEvery: 10,
		Eta:           0,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) < 4 {
		t.Fatalf("snapshots = %d", len(res.Snapshots))
	}
	totalAttempts := 0
	for _, seg := range res.Segments {
		totalAttempts += seg.Attempts
		if seg.Committed+seg.Rejected != seg.Attempts {
			t.Fatalf("segment accounting broken: %+v", seg)
		}
	}
	if totalAttempts != 40 {
		t.Fatalf("attempts = %d", totalAttempts)
	}
	// Snapshots are cumulative: rings on chain never decrease.
	for i := 1; i < len(res.Snapshots); i++ {
		if res.Snapshots[i].RingsOnChain < res.Snapshots[i-1].RingsOnChain {
			t.Fatalf("ring count regressed: %+v", res.Snapshots)
		}
	}
	// The zero-mixin fraction guarantees traced rings appear eventually.
	last := res.Snapshots[len(res.Snapshots)-1]
	if last.Traced == 0 {
		t.Fatalf("zero-mixin segment must produce traced rings: %+v", last)
	}
	// The per-algorithm frameworks share one registry: every ring committed
	// through a framework is one Step-3 admit, counted once, not once per
	// framework. Zero-mixin rings bypass the frameworks.
	var viaFramework int64
	for i, seg := range res.Segments {
		if !DefaultMix()[i].ZeroMixin {
			viaFramework += int64(seg.Committed)
		}
	}
	if res.Framework.VerifyAdmits != viaFramework || res.Framework.Solves == 0 {
		t.Fatalf("framework stats %+v, want %d admits and some solves", res.Framework, viaFramework)
	}
}

func TestRunCleanPopulationStaysUntraced(t *testing.T) {
	res, err := Run(Config{
		Tokens: 50,
		Sigma:  8,
		Strategies: []Strategy{{
			Name: "clean", Algorithm: itm.Progressive,
			Req: diversity.Requirement{C: 1, L: 3}, Weight: 1,
		}},
		Spends:        30,
		SnapshotEvery: 10,
		Eta:           0.1,
		Seed:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range res.Snapshots {
		if snap.Traced != 0 {
			t.Fatalf("clean population must stay untraced: %+v", snap)
		}
	}
	if res.Segments[0].Committed == 0 {
		t.Fatal("nothing committed")
	}
	if res.Segments[0].AvgSize < 3 {
		t.Fatalf("avg ring size %v below ℓ", res.Segments[0].AvgSize)
	}
}

func TestRunValidation(t *testing.T) {
	bad := []Config{
		{Tokens: 1, Spends: 5, Strategies: DefaultMix()},
		{Tokens: 20, Spends: 0, Strategies: DefaultMix()},
		{Tokens: 20, Spends: 5},
		{Tokens: 20, Spends: 5, Strategies: []Strategy{{Name: "x", Weight: 0}}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	cfg := Config{
		Tokens: 40, Sigma: 8, Strategies: DefaultMix(),
		Spends: 25, SnapshotEvery: 5, Seed: 9,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Snapshots) != len(b.Snapshots) {
		t.Fatal("snapshot counts differ")
	}
	for i := range a.Snapshots {
		if a.Snapshots[i] != b.Snapshots[i] {
			t.Fatalf("snapshot %d differs: %+v vs %+v", i, a.Snapshots[i], b.Snapshots[i])
		}
	}
}
