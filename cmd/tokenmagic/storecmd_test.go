package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"tokenmagic/internal/store"
)

// TestRecoverRefusesMissingDataDir: recover inspects existing data, so a
// mistyped -data-dir is an error and nothing is created there, while a dir
// that holds a store still recovers.
func TestRecoverRefusesMissingDataDir(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope-typo")
	if err := cmdRecover([]string{"-data-dir", missing}); err == nil {
		t.Fatal("recover over a missing data dir succeeded")
	}
	if _, err := os.Stat(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("recover left %s behind (stat: %v)", missing, err)
	}

	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Ledger.AddTx(st.Ledger.BeginBlock(), 3); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cmdRecover([]string{"-data-dir", dir}); err != nil {
		t.Fatalf("recover over an existing store: %v", err)
	}
}
