// Package batchsvc implements the full-node/light-node split of Section 4:
// full nodes hold the whole chain and its batch partition; light nodes do
// not store chain data and instead query the batch a token belongs to — the
// mixin universe plus the related rings — before running mixin selection
// locally. The full node serves the batch partition its tokenmagic.Framework
// publishes, so light-node reads and the node's own Step-3 checks see one
// chain state.
//
// The wire protocol is deliberately plain HTTP + JSON over net/http so a
// light node in any language could consume it:
//
//	GET /v1/meta                 → chain and batch-list metadata
//	GET /v1/batch?index=N        → batch N: block span, tokens, token→HT map
//	GET /v1/batch?token=N        → the batch containing token N
//	GET /v1/rings?index=N        → rings whose tokens lie in batch N
//
// Because λ is a public system parameter and the block list is consensus
// state, every full node derives the same batch list; a light node can
// therefore cross-check answers from multiple full nodes byte for byte.
package batchsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/tokenmagic"
)

// Meta describes the served chain.
type Meta struct {
	Lambda  int `json:"lambda"`
	Blocks  int `json:"blocks"`
	Tokens  int `json:"tokens"`
	Rings   int `json:"rings"`
	Batches int `json:"batches"`
}

// BatchInfo is the light-node view of one batch.
type BatchInfo struct {
	Index      int            `json:"index"`
	FirstBlock chain.BlockID  `json:"first_block"`
	LastBlock  chain.BlockID  `json:"last_block"`
	Tokens     chain.TokenSet `json:"tokens"`
	// Origins maps each token (position-aligned with Tokens) to its
	// historical transaction.
	Origins []chain.TxID `json:"origins"`
}

// RingInfo is the light-node view of one ring signature.
type RingInfo struct {
	ID     chain.RSID     `json:"id"`
	Tokens chain.TokenSet `json:"tokens"`
	C      float64        `json:"c"`
	L      int            `json:"l"`
}

// Server serves a full node's batch data from its Framework: every request
// pins the framework's current epoch (ledger view and batch list) once and
// answers from that one consistent chain generation, even while commits
// land mid-flight. The epoch catches up when the ledger grows, so answers
// follow the chain with no refresh step.
type Server struct {
	fw *tokenmagic.Framework
}

// NewServer serves the chain and batch partition fw publishes.
func NewServer(fw *tokenmagic.Framework) *Server { return &Server{fw: fw} }

// Handler returns the HTTP handler implementing the protocol, wrapped with
// per-route telemetry in the process-wide obs registry ("http.batchsvc.*").
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/meta", s.handleMeta)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/rings", s.handleRings)
	return obs.InstrumentHTTP(obs.Default(), "batchsvc", mux,
		"/v1/meta", "/v1/batch", "/v1/rings")
}

// snapshot pins the framework's current epoch, answering 500 if catching
// up with the ledger failed.
func (s *Server) snapshot(w http.ResponseWriter) (*chain.View, *chain.BatchList, bool) {
	v, bl, err := s.fw.Snapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil, nil, false
	}
	return v, bl, true
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	v, bl, ok := s.snapshot(w)
	if !ok {
		return
	}
	writeJSON(w, Meta{
		Lambda:  bl.Lambda,
		Blocks:  v.NumBlocks(),
		Tokens:  v.NumTokens(),
		Rings:   v.NumRS(),
		Batches: bl.Len(),
	})
}

func batchFromQuery(bl *chain.BatchList, r *http.Request) (chain.Batch, error) {
	q := r.URL.Query()
	if idx := q.Get("index"); idx != "" {
		i, err := strconv.Atoi(idx)
		if err != nil {
			return chain.Batch{}, fmt.Errorf("bad index %q", idx)
		}
		return bl.Batch(i)
	}
	if tok := q.Get("token"); tok != "" {
		t, err := strconv.Atoi(tok)
		if err != nil {
			return chain.Batch{}, fmt.Errorf("bad token %q", tok)
		}
		return bl.BatchOf(chain.TokenID(t))
	}
	return chain.Batch{}, errors.New("need ?index= or ?token=")
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	v, bl, ok := s.snapshot(w)
	if !ok {
		return
	}
	b, err := batchFromQuery(bl, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	origins := make([]chain.TxID, len(b.Tokens))
	originOf := v.OriginFunc()
	for i, t := range b.Tokens {
		origins[i] = originOf(t)
	}
	writeJSON(w, BatchInfo{
		Index:      b.Index,
		FirstBlock: b.FirstBlock,
		LastBlock:  b.LastBlock,
		Tokens:     b.Tokens,
		Origins:    origins,
	})
}

func (s *Server) handleRings(w http.ResponseWriter, r *http.Request) {
	v, bl, ok := s.snapshot(w)
	if !ok {
		return
	}
	b, err := batchFromQuery(bl, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var out []RingInfo
	for _, rec := range v.RingsOver(b.Tokens) {
		out = append(out, RingInfo{ID: rec.ID, Tokens: rec.Tokens, C: rec.C, L: rec.L})
	}
	if out == nil {
		out = []RingInfo{}
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The 200 header and part of the body may already be on the wire, so
		// no error response can be sent; count the failure so operators see
		// truncated responses instead of silence.
		obs.Default().Counter("http.batchsvc.encode_errors").Inc()
	}
}

// Client is a light node: it fetches batch data over HTTP and exposes the
// pieces mixin selection needs, without holding any chain state.
type Client struct {
	base string
	http *http.Client
}

// NewClient points a light node at a full node's base URL.
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: baseURL, http: hc}
}

func (c *Client) get(path string, into any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return fmt.Errorf("batchsvc: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("batchsvc: %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return fmt.Errorf("batchsvc: decode %s: %w", path, err)
	}
	return nil
}

// Meta fetches chain metadata.
func (c *Client) Meta() (Meta, error) {
	var m Meta
	err := c.get("/v1/meta", &m)
	return m, err
}

// BatchOf fetches the batch containing a token.
func (c *Client) BatchOf(t chain.TokenID) (BatchInfo, error) {
	var b BatchInfo
	err := c.get(fmt.Sprintf("/v1/batch?token=%d", t), &b)
	return b, err
}

// Batch fetches a batch by index.
func (c *Client) Batch(i int) (BatchInfo, error) {
	var b BatchInfo
	err := c.get(fmt.Sprintf("/v1/batch?index=%d", i), &b)
	return b, err
}

// Rings fetches the rings over a batch.
func (c *Client) Rings(batchIndex int) ([]RingInfo, error) {
	var rs []RingInfo
	err := c.get(fmt.Sprintf("/v1/rings?index=%d", batchIndex), &rs)
	return rs, err
}

// Origin builds the token→HT lookup a light node feeds to the solvers,
// valid for tokens of the fetched batch.
func (b BatchInfo) Origin() func(chain.TokenID) chain.TxID {
	m := make(map[chain.TokenID]chain.TxID, len(b.Tokens))
	for i, t := range b.Tokens {
		m[t] = b.Origins[i]
	}
	return func(t chain.TokenID) chain.TxID {
		if h, ok := m[t]; ok {
			return h
		}
		return chain.NoTx
	}
}

// Records converts fetched rings into ledger records for the solvers.
func Records(infos []RingInfo) []chain.RingRecord {
	out := make([]chain.RingRecord, len(infos))
	for i, ri := range infos {
		out[i] = chain.RingRecord{ID: ri.ID, Tokens: ri.Tokens, C: ri.C, L: ri.L, Pos: int(ri.ID)}
	}
	return out
}
