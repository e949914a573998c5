package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"time"

	"tokenmagic/internal/batchsvc"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/node"
	"tokenmagic/internal/nodesvc"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/obs/operator"
	"tokenmagic/internal/obs/trace"
	"tokenmagic/internal/ringsig"
	"tokenmagic/internal/selector"
	"tokenmagic/internal/store"
	"tokenmagic/internal/tokenmagic"
)

// fullNode bundles the two public services a full node runs over one ledger:
// batch reads (batchsvc) and spend submission/mining (nodesvc). Both read
// the node's one framework, so batch reads follow every commit.
type fullNode struct {
	node    *node.Node
	handler http.Handler
}

// newFullNode composes the public protocol handler. The two service muxes
// own disjoint routes, so the outer mux just dispatches whole paths. With
// keys set the node holds one keypair per token and serves the
// server-signed /v1/spend pipeline (load generation and experiments).
func newFullNode(led *chain.Ledger, lambda int, eta float64, allowUnsigned bool, keys map[chain.TokenID]*ringsig.PrivateKey) (*fullNode, error) {
	cfg := node.Config{
		Framework: tokenmagic.Config{
			Lambda:    lambda,
			Eta:       eta,
			Headroom:  true,
			Algorithm: tokenmagic.Progressive,
			Randomize: true,
		},
		AllowUnsigned: allowUnsigned,
		Keys:          keys,
	}
	nd, err := node.New(led, cfg)
	if err != nil {
		return nil, err
	}
	bh := batchsvc.NewServer(nd.Framework()).Handler()
	nh := nodesvc.NewServer(nd).Handler()
	mux := http.NewServeMux()
	for _, route := range []string{"/v1/meta", "/v1/batch", "/v1/rings"} {
		mux.Handle(route, bh)
	}
	for _, route := range []string{"/v1/submit", "/v1/mine", "/v1/spend", "/v1/verify", "/v1/status"} {
		mux.Handle(route, nh)
	}
	return &fullNode{node: nd, handler: mux}, nil
}

// spendKeySalt separates the spend-key stream from the other draws a seed
// drives (the data set), so no key repeats a data-set draw.
const spendKeySalt = 0x6b657973 // "keys"

// seededSpendKeys derives one keypair per token of led from seed, so every
// start of a node with the same -seed, a restart over its data dir
// included, holds the same keys. The keys are as secret as the seed: this
// is for load generation and experiments only.
func seededSpendKeys(led *chain.Ledger, seed int64) (map[chain.TokenID]*ringsig.PrivateKey, error) {
	return node.GenerateKeys(rand.New(rand.NewSource(seed^spendKeySalt)), led)
}

// serveOperator mounts the telemetry endpoints (/debug/vars, /debug/metrics
// and optionally /debug/pprof/) on their own listener so profiling and
// metrics never share a port with untrusted protocol traffic.
func serveOperator(addr string, withPprof bool) {
	mux := operator.Mux(obs.Default(), withPprof)
	hs := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		slog.Info("operator endpoints up", "addr", addr, "pprof", withPprof)
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			slog.Error("operator server failed", "addr", addr, "err", err)
		}
	}()
}

// cmdServe runs a full node: it generates (or could load) a chain and serves
// the batch protocol plus spend submission on -addr until killed. With
// -metrics it additionally exposes telemetry on a separate operator port.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	kind := fs.String("kind", "real", "data set kind: real|synthetic|small")
	seed := fs.Int64("seed", 1, "random seed")
	lambda := fs.Int("lambda", 800, "batch size parameter λ")
	eta := fs.Float64("eta", 0.1, "liveness guard η for submitted spends")
	addr := fs.String("addr", "127.0.0.1:8791", "public listen address")
	metricsAddr := fs.String("metrics", "", "operator listen address for /debug/vars, /debug/metrics and pprof (empty disables)")
	withPprof := fs.Bool("pprof", true, "mount net/http/pprof on the -metrics port")
	logLevel := fs.String("log-level", "info", "slog level: debug|info|warn|error")
	allowUnsigned := fs.Bool("allow-unsigned", false, "accept submissions without ring signatures (experiments only)")
	spendKeys := fs.Bool("spend-keys", false, "derive per-token keys from -seed and serve the server-signed /v1/spend pipeline (load testing only)")
	traces := fs.Bool("traces", true, "record request traces (export on the -metrics port at /debug/traces)")
	sf := registerStoreFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	trace.Default().SetEnabled(*traces)
	if err := setupLogging(*logLevel); err != nil {
		return err
	}
	d, err := loadDataset(*kind, *seed)
	if err != nil {
		return err
	}
	led := d.Ledger
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
		if st.Ledger.Epoch() == 0 {
			// Fresh data dir: seed it with the generated chain so the first
			// run and every restart serve the same history.
			if err := store.Seed(st.Ledger, d.Ledger.View()); err != nil {
				return err
			}
			slog.Info("store seeded from data set", "kind", *kind, "seed", *seed, "epoch", st.Ledger.Epoch())
		} else {
			// Resumed history must extend the requested dataset; otherwise
			// the node would silently serve (and grow) a population the
			// flags do not describe.
			if perr := st.Ledger.View().CheckPrefix(d.Ledger.View()); perr != nil {
				return fmt.Errorf("serve: data dir %q was not seeded from -kind=%s -seed=%d: %v (point at a matching data dir, or a fresh one to reseed)",
					*sf.dataDir, *kind, *seed, perr)
			}
			slog.Info("store resumed", "epoch", st.Ledger.Epoch(), "rings", st.Ledger.NumRS())
		}
		led = st.Ledger
	}
	var keys map[chain.TokenID]*ringsig.PrivateKey
	if *spendKeys {
		if keys, err = seededSpendKeys(led, *seed); err != nil {
			return err
		}
	}
	fn, err := newFullNode(led, *lambda, *eta, *allowUnsigned, keys)
	if err != nil {
		return err
	}
	if *metricsAddr != "" {
		serveOperator(*metricsAddr, *withPprof)
	}
	slog.Info("full node up",
		"kind", *kind,
		"tokens", led.NumTokens(),
		"rings", led.NumRS(),
		"lambda", *lambda,
		"eta", *eta,
		"addr", *addr,
		"data_dir", *sf.dataDir)
	hs := &http.Server{
		Addr:              *addr,
		Handler:           fn.handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	return hs.ListenAndServe()
}

// cmdLightSelect acts as a light node: fetch the target token's batch and
// rings from a full node, then run mixin selection locally with no chain
// state.
func cmdLightSelect(args []string) error {
	fs := flag.NewFlagSet("lightselect", flag.ExitOnError)
	nodeURL := fs.String("node", "http://127.0.0.1:8791", "full node base URL")
	target := fs.Int("target", 0, "token id to consume")
	c := fs.Float64("c", 0.6, "diversity parameter c")
	l := fs.Int("l", 20, "diversity parameter ℓ")
	algoName := fs.String("algo", "TM_P", "solver: TM_P|TM_G|TM_S")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := batchsvc.NewClient(*nodeURL, nil)

	meta, err := client.Meta()
	if err != nil {
		return err
	}
	batch, err := client.BatchOf(chain.TokenID(*target))
	if err != nil {
		return err
	}
	ringInfos, err := client.Rings(batch.Index)
	if err != nil {
		return err
	}
	records := batchsvc.Records(ringInfos)
	supers, fresh := selector.Decompose(records, batch.Tokens)
	req := diversity.Requirement{C: *c, L: *l}
	p, err := selector.NewTable(batch.Tokens, supers, fresh, batch.Origin()).Problem(chain.TokenID(*target), req.WithHeadroom())
	if err != nil {
		return err
	}
	var res selector.Result
	switch *algoName {
	case "TM_P":
		res, err = selector.Progressive(p)
	case "TM_G":
		res, err = selector.Game(p)
	case "TM_S":
		res, err = selector.Smallest(p)
	default:
		return fmt.Errorf("unknown algorithm %q", *algoName)
	}
	if err != nil {
		return err
	}
	fmt.Printf("light node against %s (chain: %d tokens, %d batches)\n", *nodeURL, meta.Tokens, meta.Batches)
	fmt.Printf("batch %d holds %d tokens, %d related rings\n", batch.Index, len(batch.Tokens), len(ringInfos))
	fmt.Printf("algo=%s ring size=%d tokens=%v\n", *algoName, res.Size(), res.Tokens)
	return nil
}
