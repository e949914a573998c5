package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"tokenmagic/internal/batchsvc"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/nodesvc"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/selector"
)

// TestServeFullLoopTelemetry drives the whole deployment loop in-process —
// the lightselect round-trip against the batch service, then a nodesvc
// submit/mine cycle and a served spend — and asserts the operator endpoints
// expose non-zero solver-latency histograms, per-route HTTP request counts, and node
// accept/reject counters, exactly what `tokenmagic serve -metrics :8792`
// serves on the operator port.
func TestServeFullLoopTelemetry(t *testing.T) {
	d, err := loadDataset("small", 1)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := newFullNode(d.Ledger, d.Ledger.NumTokens(), 0.1, true, false)
	if err != nil {
		t.Fatal(err)
	}
	public := httptest.NewServer(fn.handler)
	defer public.Close()
	operator := httptest.NewServer(obs.OperatorMux(obs.Default(), true))
	defer operator.Close()

	// --- lightselect round-trip: batch reads + client-side selection.
	bc := batchsvc.NewClient(public.URL, public.Client())
	if _, err := bc.Meta(); err != nil {
		t.Fatal(err)
	}
	target := chain.TokenID(0)
	batch, err := bc.BatchOf(target)
	if err != nil {
		t.Fatal(err)
	}
	ringInfos, err := bc.Rings(batch.Index)
	if err != nil {
		t.Fatal(err)
	}
	supers, fresh := selector.Decompose(batchsvc.Records(ringInfos), batch.Tokens)
	req := diversity.Requirement{C: 1, L: 3}
	p, err := selector.NewProblem(target, supers, fresh, batch.Origin(), req.WithHeadroom())
	if err != nil {
		t.Fatal(err)
	}
	res, err := selector.Progressive(p)
	if err != nil {
		t.Fatal(err)
	}

	// --- nodesvc submit/mine cycle: one accept, one diversity reject.
	nc := nodesvc.NewClient(public.URL, public.Client())
	if _, err := nc.Submit(nodesvc.SubmitRequest{
		Tokens: res.Tokens, C: req.C, L: req.L, Fee: 7,
	}); err != nil {
		t.Fatal(err)
	}
	var lone chain.TokenID = -1
	for _, tok := range batch.Tokens {
		if !res.Tokens.Contains(tok) {
			lone = tok
			break
		}
	}
	if lone < 0 {
		t.Fatal("selected ring covered the whole batch")
	}
	// A singleton ring can never span 2 HTs: deterministic diversity reject.
	if _, err := nc.Submit(nodesvc.SubmitRequest{
		Tokens: chain.NewTokenSet(lone), C: 1, L: 2, Fee: 1,
	}); err == nil {
		t.Fatal("singleton submission unexpectedly accepted")
	}
	mined, err := nc.Mine(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(mined) != 1 {
		t.Fatalf("mined %d rings, want 1", len(mined))
	}
	st, err := nc.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending != 0 || st.ChainRings != 1 {
		t.Fatalf("status = %+v", st)
	}

	// --- a served spend: the node selects through its framework, which
	// records the solver telemetry (client-side selection above records none).
	if _, err := nc.Spend(nodesvc.SpendRequest{Target: lone, C: req.C, L: req.L}); err != nil {
		t.Fatal(err)
	}

	// --- operator endpoints.
	dump := getBody(t, operator.URL+"/debug/metrics")
	for _, pattern := range []string{
		`histogram framework\.solve\.TM_P\.latency_us count=[1-9]`, // solver latency
		`histogram framework\.ring_size count=[1-9]`,               // ring sizes
		`counter http\.batchsvc\.v1_meta\.requests [1-9]`,          // per-route counts
		`counter http\.batchsvc\.v1_rings\.requests [1-9]`,         //
		`counter http\.nodesvc\.v1_submit\.requests 2`,             //
		`counter http\.nodesvc\.v1_submit\.status_2xx 1`,           // status classes
		`counter http\.nodesvc\.v1_submit\.status_4xx 1`,           //
		`counter node\.submit\.accepted [1-9]`,                     // node accepts
		`counter node\.submit\.reject\.diversity [1-9]`,            // node rejects
		`counter node\.mine\.rings [1-9]`,                          //
		`counter framework\.verify\.admits [1-9]`,                  // η-guard admits
		`histogram http\.nodesvc\.v1_mine\.latency_us count=`,      // HTTP latency
	} {
		if !regexp.MustCompile(pattern).MatchString(dump) {
			t.Errorf("metrics dump missing %q:\n%s", pattern, dump)
		}
	}

	vars := getBody(t, operator.URL+"/debug/vars")
	var decoded struct {
		Tokenmagic obs.Snapshot `json:"tokenmagic"`
	}
	if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if decoded.Tokenmagic.Counters["node.submit.accepted"] < 1 {
		t.Fatalf("expvar snapshot missing node counters: %v", decoded.Tokenmagic.Counters)
	}

	resp, err := http.Get(operator.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", resp.StatusCode)
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}
