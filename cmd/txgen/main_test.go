package main

import (
	"strings"
	"testing"

	"tokenmagic/internal/loadgen"
)

// reconciled is a closed-loop row at two clients whose stage counts
// reconcile exactly: 237 ok spends, each waited for its batch, selected,
// signed, verified and committed once. Its top-level stages claim 13.65 ms
// per spend (0.1 + 4.3 + 5 + 2 + 2 + 0.25 ms), 97.5% of its 14 ms mean
// latency.
func reconciled() loadgen.Result {
	return loadgen.Result{
		Arrival: "closed", Concurrency: 2, OK: 237,
		Latency: loadgen.Latency{MeanUS: 14000},
		Stages: map[string]loadgen.StageStat{
			"queue-wait": {Count: 237, MeanUS: 100},
			"batch-wait": {Count: 237, MeanUS: 4300},
			"sample":     {Count: 237, MeanUS: 5000},
			"sign":       {Count: 237, MeanUS: 2000},
			"verify-sig": {Count: 237, MeanUS: 2000},
			"verify":     {Count: 237, MeanUS: 60},
			"commit":     {Count: 237, MeanUS: 250},
		},
	}
}

func TestReconcile(t *testing.T) {
	edit := func(f func(r *loadgen.Result)) loadgen.Result {
		r := reconciled()
		f(&r)
		return r
	}
	setCount := func(r *loadgen.Result, stage string, n int64) {
		st := r.Stages[stage]
		st.Count = n
		r.Stages[stage] = st
	}
	cases := []struct {
		name    string
		r       loadgen.Result
		pattern string
		want    string // "" = reconciles; otherwise a substring of the error
	}{
		{"exact", reconciled(), "uniform", ""},
		{"one in flight per client at the warm-up edge", edit(func(r *loadgen.Result) {
			setCount(r, "sample", 239)
			setCount(r, "sign", 238)
			setCount(r, "verify-sig", 239)
			setCount(r, "commit", 239)
		}), "uniform", ""},
		{"errors and rejections ran a sample", edit(func(r *loadgen.Result) {
			r.OK, r.Rejected, r.Errors = 226, 7, 4
		}), "uniform", ""},
		{"missing commit stage", edit(func(r *loadgen.Result) {
			delete(r.Stages, "commit")
		}), "uniform", "commit"},
		{"missing sample stage", edit(func(r *loadgen.Result) {
			delete(r.Stages, "sample")
		}), "uniform", "sample"},
		{"missing sign, verify-sig and commit", edit(func(r *loadgen.Result) {
			delete(r.Stages, "sign")
			delete(r.Stages, "verify-sig")
			delete(r.Stages, "commit")
		}), "uniform", "ok spends"},
		{"samples beyond the edge allowance", edit(func(r *loadgen.Result) {
			setCount(r, "sample", 240)
		}), "uniform", "sample"},
		{"a spend sampled twice", edit(func(r *loadgen.Result) {
			r.OK = 160
		}), "uniform", "sample"},
		{"batch-wait is claimed", edit(func(r *loadgen.Result) {
			delete(r.Stages, "batch-wait")
		}), "uniform", "do not add up to latency"},
		{"double spends skip commit under zipf", edit(func(r *loadgen.Result) {
			r.OK, r.Rejected = 200, 37
			setCount(r, "commit", 200)
		}), "zipf", ""},
		{"uniform spends never skip commit", edit(func(r *loadgen.Result) {
			r.OK, r.Rejected = 200, 37
			setCount(r, "commit", 200)
		}), "uniform", "commit vs verify-sig"},
		{"stages claim the tolerance's edge", edit(func(r *loadgen.Result) {
			r.Latency.MeanUS = 13650 / (1 - claimTolerance + 0.001)
		}), "uniform", ""},
		{"missing sign and verify-sig stages under zipf", edit(func(r *loadgen.Result) {
			delete(r.Stages, "sign")
			delete(r.Stages, "verify-sig")
		}), "zipf", "do not add up to latency"},
		{"missing sample stage time", edit(func(r *loadgen.Result) {
			r.Stages["sample"] = loadgen.StageStat{Count: 237}
		}), "uniform", "do not add up to latency"},
		{"latency no stage claims", edit(func(r *loadgen.Result) {
			r.Latency.MeanUS = 13650 / (1 - claimTolerance - 0.001)
		}), "uniform", "do not add up to latency"},
		{"stages claim more than latency", edit(func(r *loadgen.Result) {
			r.Latency.MeanUS = 13650 / (1 + claimTolerance + 0.001)
		}), "uniform", "do not add up to latency"},
		{"nested verify is not summed", edit(func(r *loadgen.Result) {
			// Same claim as the fixture, but summing verify would add 30%.
			r.Stages["sample"] = loadgen.StageStat{Count: 237, MeanUS: 2250}
			r.Stages["commit"] = loadgen.StageStat{Count: 237, MeanUS: 3000}
			r.Stages["verify"] = loadgen.StageStat{Count: 237, MeanUS: 2900}
		}), "uniform", ""},
	}
	for _, tc := range cases {
		err := reconcile(tc.r, tc.pattern)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: reconciled, want an error naming %q", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}
