// Package nodesvc exposes a validating miner (internal/node) over HTTP, so
// wallets on other machines can submit signed ring spends and watch them get
// mined. Together with internal/batchsvc (chain reads) it completes the
// network story: a light wallet reads batches from one endpoint, selects
// mixins locally, signs, and posts the spend to this one.
//
//	POST /v1/submit   {tokens, c, l, keys, signature, fee} → {submission_id}
//	POST /v1/mine     {max_rings}                          → [{submission_id, ring, fee}]
//	POST /v1/spend    {target, c, l}                       → {ring, rsid, ring_size, signed}
//	POST /v1/verify   {entries: [{tokens, keys, signature}]} → {ok, errors, first_failure, cache_hits}
//	GET  /v1/status                                        → {pending, chain_rings}
//
// In a real deployment mining would be driven by consensus rather than an
// endpoint; the endpoint keeps simulations and tests deterministic. /v1/spend
// runs the whole select→sign→verify→commit pipeline server-side (the node
// must hold the token keys, node.Config.Keys) — it exists for load generation
// (cmd/txgen), where one request exercises every pipeline stage and the
// request trace shows the full breakdown. A refused spend answers 422; a
// spend the node could not journal (chain.ErrJournal) answers 500.
package nodesvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/node"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/ringsig"
)

// SubmitRequest is the wire form of a node.Submission.
type SubmitRequest struct {
	Tokens    chain.TokenSet     `json:"tokens"`
	C         float64            `json:"c"`
	L         int                `json:"l"`
	Keys      []ringsig.Point    `json:"keys,omitempty"`
	Signature *ringsig.Signature `json:"signature,omitempty"`
	Fee       uint64             `json:"fee"`
}

// SubmitResponse acknowledges an accepted submission.
type SubmitResponse struct {
	SubmissionID int `json:"submission_id"`
}

// SpendRequest asks the node to select, sign and commit a ring for target.
type SpendRequest struct {
	Target chain.TokenID `json:"target"`
	C      float64       `json:"c"`
	L      int           `json:"l"`
}

// SpendResponse describes the committed ring.
type SpendResponse struct {
	Ring     chain.TokenSet `json:"ring"`
	RSID     chain.RSID     `json:"rsid"`
	RingSize int            `json:"ring_size"`
	Signed   bool           `json:"signed"`
}

// VerifyEntry is one signature to check in a /v1/verify batch.
type VerifyEntry struct {
	Tokens    chain.TokenSet     `json:"tokens"`
	Keys      []ringsig.Point    `json:"keys"`
	Signature *ringsig.Signature `json:"signature"`
}

// VerifyRequest asks the node to batch-check ring signatures without
// admitting them to the mempool — what a peer does when auditing a block
// template it received.
type VerifyRequest struct {
	Entries []VerifyEntry `json:"entries"`
}

// VerifyResponse reports per-entry outcomes. Errors[i] is "" for a valid
// entry; FirstFailure is the lowest failing index, -1 if all passed.
type VerifyResponse struct {
	OK           bool     `json:"ok"`
	Errors       []string `json:"errors"`
	FirstFailure int      `json:"first_failure"`
	CacheHits    int      `json:"cache_hits"`
}

// MineRequest triggers block production.
type MineRequest struct {
	MaxRings int `json:"max_rings"`
}

// MinedEntry is one ring included in the produced block.
type MinedEntry struct {
	SubmissionID int        `json:"submission_id"`
	Ring         chain.RSID `json:"ring"`
	Fee          uint64     `json:"fee"`
}

// Status reports node state.
type Status struct {
	Pending    int `json:"pending"`
	ChainRings int `json:"chain_rings"`
}

// Server wraps a node with HTTP handlers.
type Server struct {
	// MaxInFlight caps concurrently executing requests and MaxQueue the
	// waiting room behind them (obs.LimitConcurrency); over-capacity
	// requests are shed with 503. Zero MaxInFlight disables the gate. Set
	// both before calling Handler.
	MaxInFlight int
	MaxQueue    int

	node *node.Node
}

// NewServer wraps an existing node.
func NewServer(n *node.Node) *Server { return &Server{node: n} }

// Handler returns the HTTP handler, wrapped with per-route telemetry in the
// process-wide obs registry ("http.nodesvc.*") and, when MaxInFlight is set,
// the concurrency gate (in_flight/queue_depth gauges, rejected_busy counter).
// InstrumentHTTP sits outside LimitConcurrency so each request's latency
// histogram and trace include its queue wait, and sheds are per-route.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/submit", s.handleSubmit)
	mux.HandleFunc("/v1/mine", s.handleMine)
	mux.HandleFunc("/v1/spend", s.handleSpend)
	mux.HandleFunc("/v1/verify", s.handleVerify)
	mux.HandleFunc("/v1/status", s.handleStatus)
	h := obs.LimitConcurrency(obs.Default(), "nodesvc", s.MaxInFlight, s.MaxQueue, mux)
	return obs.InstrumentHTTP(obs.Default(), "nodesvc", h,
		"/v1/submit", "/v1/mine", "/v1/spend", "/v1/verify", "/v1/status")
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rcpt, err := s.node.SubmitCtx(r.Context(), node.Submission{
		Tokens:    req.Tokens,
		Req:       diversity.Requirement{C: req.C, L: req.L},
		Keys:      req.Keys,
		Signature: req.Signature,
		Fee:       req.Fee,
	})
	if err != nil {
		// Validation failures are client errors; everything here is
		// deterministic validation, so 422 fits all of them.
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, SubmitResponse{SubmissionID: rcpt.SubmissionID})
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req MineRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.MaxRings <= 0 {
		req.MaxRings = 100
	}
	mined, err := s.node.MineCtx(r.Context(), req.MaxRings)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out := make([]MinedEntry, 0, len(mined))
	for _, m := range mined {
		out = append(out, MinedEntry{SubmissionID: m.SubmissionID, Ring: m.Ring, Fee: m.Fee})
	}
	writeJSON(w, out)
}

func (s *Server) handleSpend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req SpendRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := s.node.Spend(r.Context(), req.Target, diversity.Requirement{C: req.C, L: req.L})
	switch {
	case errors.Is(err, chain.ErrJournal):
		// The node could not write the chain: a server fault, as on
		// /v1/mine. Not 503, which load clients read as admission shed.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	case err != nil:
		// Same contract as /v1/submit: deterministic validation failures
		// (double spend, η guard, no candidate) are client errors.
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, SpendResponse{Ring: res.Ring, RSID: res.RSID, RingSize: len(res.Ring), Signed: res.Signed})
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req VerifyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	subs := make([]node.Submission, len(req.Entries))
	for i, e := range req.Entries {
		subs[i] = node.Submission{Tokens: e.Tokens, Keys: e.Keys, Signature: e.Signature}
	}
	res := s.node.VerifyBatchCtx(r.Context(), subs)
	// Per-entry verdicts are the payload, not an HTTP failure: a batch
	// containing invalid signatures is still a successful verification run.
	out := VerifyResponse{OK: res.OK(), Errors: make([]string, len(res.Errs)),
		FirstFailure: res.FirstFailure, CacheHits: res.CacheHits}
	for i, err := range res.Errs {
		if err != nil {
			out.Errors[i] = err.Error()
		}
	}
	writeJSON(w, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, Status{Pending: s.node.PendingCount(), ChainRings: s.node.ChainRings()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The 200 header and part of the body may already be on the wire, so
		// no error response can be sent; count the failure so operators see
		// truncated responses instead of silence.
		obs.Default().Counter("http.nodesvc.encode_errors").Inc()
	}
}

// Client posts submissions to a remote node.
type Client struct {
	base string
	http *http.Client
}

// NewClient points at a node's base URL.
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: baseURL, http: hc}
}

func (c *Client) post(path string, body, into any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("nodesvc: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg [512]byte
		n, _ := resp.Body.Read(msg[:])
		return fmt.Errorf("nodesvc: %s: %s: %s", path, resp.Status, string(msg[:n]))
	}
	if into == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// Submit posts a spend.
func (c *Client) Submit(req SubmitRequest) (SubmitResponse, error) {
	var out SubmitResponse
	err := c.post("/v1/submit", req, &out)
	return out, err
}

// Spend asks the node to select, sign and commit a ring server-side.
func (c *Client) Spend(req SpendRequest) (SpendResponse, error) {
	var out SpendResponse
	err := c.post("/v1/spend", req, &out)
	return out, err
}

// Verify batch-checks ring signatures against the node's verification
// engine without submitting them.
func (c *Client) Verify(req VerifyRequest) (VerifyResponse, error) {
	var out VerifyResponse
	err := c.post("/v1/verify", req, &out)
	return out, err
}

// Mine asks the node to produce a block.
func (c *Client) Mine(maxRings int) ([]MinedEntry, error) {
	var out []MinedEntry
	err := c.post("/v1/mine", MineRequest{MaxRings: maxRings}, &out)
	return out, err
}

// Status fetches node state.
func (c *Client) Status() (Status, error) {
	resp, err := c.http.Get(c.base + "/v1/status")
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	var out Status
	return out, json.NewDecoder(resp.Body).Decode(&out)
}
