package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/sim"
	"tokenmagic/internal/store"
)

// cmdSim runs the multi-user batch lifecycle simulation and prints the
// anonymity-over-time series plus per-segment outcomes.
func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	tokens := fs.Int("tokens", 80, "tokens in the simulated batch")
	spends := fs.Int("spends", 60, "spend attempts")
	every := fs.Int("every", 10, "snapshot interval (attempts)")
	eta := fs.Float64("eta", 0.1, "liveness guard η")
	sigma := fs.Float64("sigma", 8, "HT distribution σ")
	seed := fs.Int64("seed", 1, "random seed")
	metricsAddr := fs.String("metrics", "", "operator listen address live during the run (/debug/vars, /debug/metrics, pprof)")
	withPprof := fs.Bool("pprof", true, "mount net/http/pprof on the -metrics port")
	logLevel := fs.String("log-level", "info", "slog level: debug|info|warn|error")
	sf := registerStoreFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := setupLogging(*logLevel); err != nil {
		return err
	}
	if *metricsAddr != "" {
		serveOperator(*metricsAddr, *withPprof)
	}
	cfg := sim.Config{
		Tokens:        *tokens,
		Sigma:         *sigma,
		Strategies:    sim.DefaultMix(),
		Spends:        *spends,
		SnapshotEvery: *every,
		Eta:           *eta,
		Seed:          *seed,
	}
	if *sf.dataDir != "" {
		st, err := sf.open()
		if err != nil {
			return err
		}
		defer func() {
			if cerr := st.Close(); cerr != nil {
				slog.Error("store close", "err", cerr)
			}
		}()
		cfg.Persist = func(gen *chain.Ledger) (*chain.Ledger, error) {
			if st.Ledger.Epoch() == 0 {
				// Fresh data dir: write the generated history through the
				// journal so a restart regenerates nothing.
				if err := store.Seed(st.Ledger, gen.View()); err != nil {
					return nil, err
				}
				slog.Info("store seeded from generated chain", "epoch", st.Ledger.Epoch())
			} else {
				// Crash/restart: resume the recovered mid-run chain. Spends
				// already on it stay committed; the run extends it — but only
				// if it actually holds this run's token population (the
				// Persist contract), not a dir seeded by different flags.
				if perr := st.Ledger.View().CheckPrefix(gen.View()); perr != nil {
					return nil, fmt.Errorf("sim: data dir %q holds a different population than this -tokens/-sigma/-seed run: %v (use matching flags or a fresh data dir)",
						*sf.dataDir, perr)
				}
				slog.Info("store resumed mid-run",
					"epoch", st.Ledger.Epoch(), "rings", st.Ledger.NumRS())
			}
			return st.Ledger, nil
		}
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Println("anonymity over time (exact chain-reaction adversary):")
	fmt.Printf("%8s %8s %8s %12s %14s %14s %18s\n",
		"attempt", "rings", "traced", "htRevealed", "avgAnonymity", "minAnonymity", "provablyConsumed")
	for _, s := range res.Snapshots {
		fmt.Printf("%8d %8d %8d %12d %14.2f %14d %18d\n",
			s.Attempt, s.RingsOnChain, s.Traced, s.HTRevealed, s.AvgAnonymity, s.MinAnonymity, s.ProvablyConsumed)
	}
	fmt.Printf("\neffective anonymity-set size (DM decomposition): mean=%.2f min=%d over %d rings (traced=%d)\n",
		res.Final.AvgAnonymity, res.Final.MinAnonymity, res.Final.Rings, res.Final.Traced)
	fmt.Println("\nper-segment outcomes:")
	fmt.Printf("%-14s %10s %10s %10s %10s\n", "segment", "attempts", "committed", "rejected", "avgSize")
	for _, seg := range res.Segments {
		fmt.Printf("%-14s %10d %10d %10d %10.1f\n",
			seg.Name, seg.Attempts, seg.Committed, seg.Rejected, seg.AvgSize)
	}
	if res.Stranded > 0 {
		fmt.Printf("\nstranded spend attempts: %d\n", res.Stranded)
	}
	st := res.Framework
	fmt.Printf("\nmetrics: solves=%d solveFailures=%d admits=%d rejects=%d (liveness=%d config=%d diversity=%d other=%d)\n",
		st.Solves, st.SolveFailures, st.VerifyAdmits,
		st.Rejects(), st.RejectLiveness, st.RejectConfig, st.RejectDiversity, st.RejectOther)
	for _, algo := range []string{"TM_P", "TM_G", "TM_S", "TM_R", "TM_B"} {
		h, ok := res.SolveLatencyUS[algo]
		if !ok {
			continue
		}
		fmt.Printf("solve latency %s: n=%d mean=%.0fus p50=%.0fus p99=%.0fus\n",
			algo, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
	}
	return nil
}

// cmdSnapshot saves a generated data set to a file, or inspects one.
func cmdSnapshot(args []string) error {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	kind := fs.String("kind", "real", "data set kind to save: real|synthetic|small")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "", "write snapshot to this file")
	in := fs.String("in", "", "read and summarise a snapshot file instead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		l, err := chain.ReadLedger(f)
		if err != nil {
			return err
		}
		fmt.Printf("snapshot %s: %d blocks, %d txs, %d tokens, %d rings\n",
			*in, l.NumBlocks(), l.NumTxs(), l.NumTokens(), l.NumRS())
		return nil
	}
	if *out == "" {
		return fmt.Errorf("snapshot: need -out FILE or -in FILE")
	}
	d, err := loadDataset(*kind, *seed)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := d.Ledger.WriteTo(f)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s snapshot (%d bytes) to %s\n", *kind, n, *out)
	return nil
}
