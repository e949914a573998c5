package main

// Persistence wiring for the serve and sim subcommands, plus the recover
// subcommand: every durable deployment runs over internal/store, and
// recover is the operator's (and CI's) way to inspect what a crashed data
// dir recovers to.

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"tokenmagic/internal/adversary/graphattack"
	"tokenmagic/internal/store"
)

// storeFlags registers the persistence flag set shared by serve, sim and
// recover. An empty -data-dir means in-memory only.
type storeFlags struct {
	dataDir       *string
	segmentBytes  *int64
	snapshotEvery *uint64
	syncEvery     *bool
}

func registerStoreFlags(fs *flag.FlagSet) *storeFlags {
	return &storeFlags{
		dataDir:       fs.String("data-dir", "", "persist the ledger under this directory (empty = in-memory)"),
		segmentBytes:  fs.Int64("segment-bytes", 4<<20, "rotate segment files at this size"),
		snapshotEvery: fs.Uint64("snapshot-every", 512, "snapshot the ledger every N committed ops (0 = only on demand)"),
		syncEvery:     fs.Bool("fsync", false, "fsync the segment log on every append (durability over throughput)"),
	}
}

// open opens the store described by the flags.
func (sf *storeFlags) open() (*store.Store, error) {
	st, err := store.Open(*sf.dataDir, store.Options{
		SegmentBytes:  *sf.segmentBytes,
		SnapshotEvery: *sf.snapshotEvery,
		Sync:          *sf.syncEvery,
	})
	if err != nil {
		return nil, err
	}
	slog.Info("store opened",
		"dir", *sf.dataDir,
		"epoch", st.Info.Epoch,
		"snapshot_seq", st.Info.SnapshotSeq,
		"replayed", st.Info.Replayed,
		"duplicates", st.Info.Duplicates,
		"torn_bytes", st.Info.TornBytes)
	return st, nil
}

// recoverReport is the JSON the recover subcommand emits, one object per
// open, so CI can diff two recoveries structurally. The anonymity block is
// a DM audit of the recovered rings — recovery that silently dropped or
// duplicated rings shows up as a traced-count or min-anonymity shift even
// when counts look plausible.
type recoverReport struct {
	Info   store.RecoveryInfo `json:"info"`
	Digest string             `json:"digest"`
	Blocks int                `json:"blocks"`
	Txs    int                `json:"txs"`
	Tokens int                `json:"tokens"`
	Rings  int                `json:"rings"`
	// AuditedRings is how many rings the DM audit covered: equal to Rings,
	// or 0 when the ledger exceeded -max-audit-rings and the audit was
	// skipped (matching has superlinear cost on huge ledgers).
	AuditedRings  int     `json:"audited_rings"`
	TracedRings   int     `json:"traced_rings"`
	MinAnonymity  int     `json:"min_anonymity"`
	MeanAnonymity float64 `json:"mean_anonymity"`
}

// cmdRecover opens a data dir, prints what recovery found, then opens it a
// second time and asserts the second recovery is clean and lands on the
// identical state — recovery must be idempotent, or the repair pass left
// damage behind. Exits non-zero on divergence, so CI can use it directly.
func cmdRecover(args []string) error {
	fs := flag.NewFlagSet("recover", flag.ExitOnError)
	sf := registerStoreFlags(fs)
	maxAudit := fs.Int("max-audit-rings", 4096, "skip the DM anonymity audit above this many recovered rings (0 = always skip)")
	logLevel := fs.String("log-level", "warn", "slog level: debug|info|warn|error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := setupLogging(*logLevel); err != nil {
		return err
	}
	if *sf.dataDir == "" {
		return fmt.Errorf("recover: need -data-dir")
	}
	// recover inspects existing data; store.Open would create an empty
	// store at a mistyped path and report it recovered.
	if _, err := os.Stat(*sf.dataDir); err != nil {
		return fmt.Errorf("recover: %w", err)
	}

	report := func() (recoverReport, error) {
		st, err := sf.open()
		if err != nil {
			return recoverReport{}, err
		}
		defer func() {
			if cerr := st.Close(); cerr != nil {
				slog.Error("close after recovery", "err", cerr)
			}
		}()
		digest, err := store.Digest(st.Ledger.View())
		if err != nil {
			return recoverReport{}, err
		}
		rep := recoverReport{
			Info:   st.Info,
			Digest: digest,
			Blocks: st.Ledger.NumBlocks(),
			Txs:    st.Ledger.NumTxs(),
			Tokens: st.Ledger.NumTokens(),
			Rings:  st.Ledger.NumRS(),
		}
		if rep.Rings > 0 && rep.Rings <= *maxAudit {
			m := graphattack.DM(st.Ledger.Rings(), nil, st.Ledger.OriginFunc()).Metrics
			rep.AuditedRings = m.Rings
			rep.TracedRings = m.Traced
			rep.MinAnonymity = m.MinAnonymity
			rep.MeanAnonymity = m.AvgAnonymity
		}
		return rep, nil
	}

	first, err := report()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(first); err != nil {
		return err
	}

	second, err := report()
	if err != nil {
		return fmt.Errorf("recover: second open failed (recovery not idempotent): %w", err)
	}
	if second.Digest != first.Digest || second.Info.Epoch != first.Info.Epoch {
		return fmt.Errorf("recover: second open diverged: epoch %d→%d digest %s→%s",
			first.Info.Epoch, second.Info.Epoch, first.Digest, second.Digest)
	}
	if second.Info.TornBytes != 0 {
		return fmt.Errorf("recover: second open still repairing (torn %d bytes): first repair incomplete",
			second.Info.TornBytes)
	}
	fmt.Println("recovery stable: second open clean and identical")
	return nil
}
