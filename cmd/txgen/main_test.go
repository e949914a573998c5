package main

import (
	"strings"
	"testing"

	"tokenmagic/internal/loadgen"
)

// reconciled is a closed-loop row at two clients whose stage counts
// reconcile exactly: 161 ok spends and 76 stale-epoch retries are 237
// attempts, each selected, signed, verified and committed.
func reconciled() loadgen.Result {
	return loadgen.Result{
		Arrival: "closed", Concurrency: 2, OK: 161, Retries: 76,
		Stages: map[string]loadgen.StageStat{
			"queue-wait": {Count: 161},
			"sample":     {Count: 237},
			"sign":       {Count: 237},
			"verify-sig": {Count: 237},
			"verify":     {Count: 237},
			"commit":     {Count: 237},
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
		{"errors and rejections are attempts", edit(func(r *loadgen.Result) {
			r.OK, r.Rejected, r.Errors = 150, 7, 4
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
		{"retries not counted", edit(func(r *loadgen.Result) {
			r.Retries = 0
		}), "uniform", "sample"},
		{"double spends skip commit under zipf", edit(func(r *loadgen.Result) {
			setCount(r, "commit", 200)
		}), "zipf", ""},
		{"uniform spends never skip commit", edit(func(r *loadgen.Result) {
			setCount(r, "commit", 200)
		}), "uniform", "commit vs verify-sig"},
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
