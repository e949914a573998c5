package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"tokenmagic/internal/chain"
)

// manifest is the part of BENCHMARK.json the program must agree with.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// tiny shrinks every workload so the smoke test runs each one, untraced and
// traced, in a few seconds.
func tiny(t *testing.T) (map[string]spendWorkload, map[string]auditWorkload) {
	t.Helper()
	spends := make(map[string]spendWorkload)
	for name, w := range spendWorkloads {
		w.shape = chainShape{lambda: 40, blocks: 4}
		w.load.warmup = 100 * time.Millisecond
		if w.load.rate > 0 {
			w.load.rate = 40
		}
		spends[name] = w
	}
	audits := make(map[string]auditWorkload)
	for name, w := range auditWorkloads {
		w.shape = chainShape{lambda: 40, blocks: 3}
		w.rings = 20
		w.load.warmup = 50 * time.Millisecond
		audits[name] = w
	}
	return spends, audits
}

func sortedNames(names []string) []string {
	out := slices.Clone(names)
	slices.Sort(out)
	return out
}

// TestWorkloadsMatchManifest runs every workload at tiny size in both modes
// and checks that each passes its correctness gates and reports exactly the
// metrics, with the units, that BENCHMARK.json declares.
func TestWorkloadsMatchManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range m.Workloads {
		declared = append(declared, w.Name)
	}
	if got, want := sortedNames(workloadNames()), sortedNames(declared); !slices.Equal(got, want) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, want)
	}
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, e := range m.EndToEnd {
		units[false][e.Name] = e.Unit
	}
	for _, e := range m.PerLayer {
		units[true][e.Name] = e.Unit
	}

	spends, audits := tiny(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			o := options{seed: 7, window: 400 * time.Millisecond, traced: traced, work: dir, traceOut: filepath.Join(dir, "spans.jsonl")}
			var rep *report
			var err error
			if w, ok := spends[name]; ok {
				rep, err = runSpend(w, o)
			} else {
				rep, err = runAudit(audits[name], o)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if len(rep.problems) > 0 || rep.attempted == 0 || rep.failed > 0 {
				t.Fatalf("%s traced=%v: attempted %d failed %d, gates %v", name, traced, rep.attempted, rep.failed, rep.problems)
			}
			want := units[traced]
			if len(rep.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(rep.metrics), len(want))
			}
			for n, mv := range rep.metrics {
				if u, ok := want[n]; !ok || u != mv.Unit {
					t.Errorf("%s traced=%v: metric %s [%s] not declared with that unit (declared %q)", name, traced, n, mv.Unit, u)
				}
			}
			if traced {
				if fi, err := os.Stat(o.traceOut); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no span log written: %v", name, err)
				}
			}
		}
	}
}

// TestOpenLoopTimesFromDue checks that a stall shows on the arrivals queued
// behind it: with one connection and one slow operation, the arrivals due
// during the stall report latency from their due time, not their start.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls int
	slowFirst := func(int64, chain.TokenID) error {
		calls++
		if calls == 1 {
			time.Sleep(stall)
		}
		return nil
	}
	n := 0
	next := func() (chain.TokenID, bool) { n++; return chain.TokenID(n), true }
	res := drive(load{clients: 1, rate: 50}, time.Second, 1, next, slowFirst)
	if res.attempted == 0 || res.failed != 0 {
		t.Fatalf("attempted %d failed %d", res.attempted, res.failed)
	}
	// About stall × rate arrivals queue behind the first; the earliest of
	// them waited most of the stall.
	if max := quantile(res.latMS, 1); max < msOf(stall)/2 {
		t.Fatalf("max latency %.1f ms: the stall did not show on queued arrivals", max)
	}
	if slow := countAbove(res.latMS, 50); slow < 5 {
		t.Fatalf("only %d arrivals over 50 ms; queued arrivals must carry the stall", slow)
	}
}

func countAbove(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}
