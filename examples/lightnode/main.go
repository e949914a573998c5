// Light node: the Section-4 deployment split, live. A full node holds the
// whole chain, derives the public batch partition, and serves it over plain
// HTTP+JSON. A light node holds nothing: it asks for the batch containing
// its token (the mixin universe plus related rings) and runs diversity-aware
// selection locally. Since λ is a consensus parameter, any two full nodes
// serve byte-identical batches, so light nodes can cross-check them.
//
//	go run ./examples/lightnode
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"tokenmagic/internal/batchsvc"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/selector"
	"tokenmagic/internal/tokenmagic"
	"tokenmagic/internal/workload"
)

func main() {
	logLevel := flag.String("log-level", "info", "slog level for server status: debug|info|warn|error")
	flag.Parse()
	// Server status goes to slog on stderr; the light-node results below stay
	// on stdout. With -log-level=debug the per-request middleware lines show.
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		log.Fatalf("bad -log-level %q: %v", *logLevel, err)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))

	// ---- Full node: the paper's real data set behind the batch protocol.
	dataset, err := workload.RealMonero(1)
	if err != nil {
		log.Fatal(err)
	}
	// The framework derives the batch partition (λ=800) once; the batch
	// service serves its published epoch.
	fw, err := tokenmagic.New(dataset.Ledger, tokenmagic.DefaultConfig(), nil)
	if err != nil {
		log.Fatal(err)
	}
	server := batchsvc.NewServer(fw)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		_ = http.Serve(ln, server.Handler())
	}()
	base := "http://" + ln.Addr().String()
	slog.Info("full node up",
		"tokens", dataset.Ledger.NumTokens(),
		"rings", dataset.Ledger.NumRS(),
		"addr", base)

	// ---- Light node: no chain state, only HTTP.
	client := batchsvc.NewClient(base, &http.Client{Timeout: 5 * time.Second})
	meta, err := client.Meta()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("light node sees: λ=%d, %d batches, %d rings\n", meta.Lambda, meta.Batches, meta.Rings)

	target := chain.TokenID(42)
	batch, err := client.BatchOf(target)
	if err != nil {
		log.Fatal(err)
	}
	ringInfos, err := client.Rings(batch.Index)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fetched batch %d: %d tokens, %d related rings\n",
		batch.Index, len(batch.Tokens), len(ringInfos))

	// Local selection over the fetched view, nothing else.
	records := batchsvc.Records(ringInfos)
	supers, fresh := selector.Decompose(records, batch.Tokens)
	req := diversity.Requirement{C: 0.6, L: 20}
	p, err := selector.NewTable(batch.Tokens, supers, fresh, batch.Origin()).Problem(target, req.WithHeadroom())
	if err != nil {
		log.Fatal(err)
	}
	for _, algo := range []struct {
		name string
		run  func(*selector.Problem) (selector.Result, error)
	}{
		{"TM_P", selector.Progressive},
		{"TM_G", selector.Game},
	} {
		start := time.Now()
		res, err := algo.run(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: ring of %d tokens for %v in %v (entirely client-side)\n",
			algo.name, res.Size(), target, time.Since(start).Round(time.Microsecond))
	}
}
