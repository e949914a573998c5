package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"tokenmagic/internal/bench"
)

// TestAssertGatesCellsOnly: the gate compares (solver, attack) cells and
// nothing else. A baseline stamped on another commit and machine passes
// while every cell holds its floor, and one cell below its floor fails.
func TestAssertGatesCellsOnly(t *testing.T) {
	base, err := readReport(filepath.Join("..", "..", "BENCH_anonymity.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) == 0 {
		t.Fatal("the committed baseline has no rows")
	}
	cur := &bench.AnonymityReport{
		Commit:     "elsewhere",
		GOMAXPROCS: base.GOMAXPROCS + 3,
		NumCPU:     base.NumCPU + 5,
		Rows:       append([]bench.AnonymityRow(nil), base.Rows...),
	}
	if err := assertNoRegression(cur, base, "baseline"); err != nil {
		t.Fatalf("identical cells on another machine: %v", err)
	}
	cur.Rows[0].MinAnonymity = base.Rows[0].MinAnonymity - 1
	if err := assertNoRegression(cur, base, "baseline"); err == nil {
		t.Fatal("a cell below its floor passed the gate")
	}
}

// TestAuditRefusesMissingDataDir: -data-dir names existing data, so a
// mistyped path is an error and no store is created there.
func TestAuditRefusesMissingDataDir(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope-typo")
	if _, err := auditDataDir(missing, 2, nil); err == nil {
		t.Fatal("audit of a missing data dir succeeded")
	}
	if _, err := os.Stat(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("audit left %s behind (stat: %v)", missing, err)
	}
}
