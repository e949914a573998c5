package loadgen

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/node"
	"tokenmagic/internal/nodesvc"
	"tokenmagic/internal/workload"

	itm "tokenmagic/internal/tokenmagic"
)

// NodeOptions sizes the in-process node a self-contained load run drives.
type NodeOptions struct {
	// Population is the number of spendable (fresh) tokens.
	Population int
	// Lambda is the node's batch size parameter λ; 0 uses the population
	// (one batch).
	Lambda int
	// Eta is the liveness guard η.
	Eta float64
	// Seed fixes the synthetic chain; the per-token keys are still drawn
	// from crypto/rand (key material does not affect load shape).
	Seed int64
	// Randomize turns on the framework's Algorithm-1 candidate sweep;
	// StopAfter caps it.
	Randomize bool
	StopAfter int
	// MaxInFlight and MaxQueue configure the admission gate
	// (obs.LimitConcurrency); 0 MaxInFlight disables shedding.
	MaxInFlight int
	MaxQueue    int
}

// InProcNode is a full node served over a loopback listener.
type InProcNode struct {
	// BaseURL is the node's HTTP endpoint.
	BaseURL string
	// Population is the spendable token set (the load run's target pool).
	Population chain.TokenSet

	srv *http.Server
	ln  net.Listener
}

// Close shuts the listener down.
func (n *InProcNode) Close() { _ = n.srv.Close() }

// StartInProcNode builds a synthetic all-fresh chain of opts.Population
// tokens, keys every token, and serves the node protocol (including
// /v1/spend) on a loopback port.
func StartInProcNode(opts NodeOptions) (*InProcNode, error) {
	if opts.Population < 2 {
		return nil, fmt.Errorf("loadgen: population must be ≥ 2, got %d", opts.Population)
	}
	lambda := opts.Lambda
	if lambda <= 0 {
		lambda = opts.Population
	}
	d, err := workload.Synthetic(workload.SyntheticParams{
		NumSupers:    0,
		SuperSizeMin: 1,
		SuperSizeMax: 1,
		NumFresh:     opts.Population,
		Sigma:        12,
		Seed:         opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	keys, err := node.GenerateKeys(nil, d.Ledger)
	if err != nil {
		return nil, err
	}
	nd, err := node.New(d.Ledger, node.Config{
		Framework: itm.Config{
			Lambda:    lambda,
			Eta:       opts.Eta,
			Headroom:  true,
			Algorithm: itm.Progressive,
			Randomize: opts.Randomize,
			StopAfter: opts.StopAfter,
		},
		Keys: keys,
	})
	if err != nil {
		return nil, err
	}
	svc := nodesvc.NewServer(nd)
	svc.MaxInFlight = opts.MaxInFlight
	svc.MaxQueue = opts.MaxQueue

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &InProcNode{
		BaseURL:    "http://" + ln.Addr().String(),
		Population: d.Universe,
		srv:        srv,
		ln:         ln,
	}, nil
}
