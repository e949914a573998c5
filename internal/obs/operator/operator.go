// Package operator serves a metrics registry on a node's operator port:
// expvar JSON, a plain-text dump with the Go runtime's own gauges, recent
// request traces and, optionally, net/http/pprof. It holds every import
// that only this port needs (expvar, net/http/pprof, runtime/metrics), so
// processes that use package obs as a library pay for none of their
// package initialisation.
package operator

import (
	"expvar"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"sync"

	"tokenmagic/internal/obs"
	"tokenmagic/internal/obs/trace"
)

var publishOnce sync.Once

// publishExpvar exposes reg as the single expvar "tokenmagic" so the
// standard /debug/vars JSON carries the whole registry. Only the first
// registry published this way wins (expvar names are process-global).
func publishExpvar(reg *obs.Registry) {
	publishOnce.Do(func() {
		expvar.Publish("tokenmagic", expvar.Func(func() any { return reg.Snapshot() }))
	})
}

// metricsHandler serves the plain-text dump (GET /debug/metrics): reg's
// WriteText, with the process's run-queue and heap gauges read from
// runtime/metrics at scrape time (see runtimeLines) sorted in.
func metricsHandler(reg *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = reg.WriteText(w, runtimeLines()...)
	})
}

// Mux assembles the operator-port telemetry mux: /debug/vars (expvar JSON
// including the registry), /debug/metrics (metricsHandler), /debug/traces
// (recent and slowest request traces with span trees, JSON) and, when
// withPprof is set, the net/http/pprof handlers under /debug/pprof/. Mount
// it on a port separate from the public protocol port; it is not meant to
// be reachable by untrusted clients.
func Mux(reg *obs.Registry, withPprof bool) *http.ServeMux {
	publishExpvar(reg)
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/debug/metrics", metricsHandler(reg))
	mux.Handle("/debug/traces", trace.Default().Handler())
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// runtimeLines reads the Go runtime's own view of the process, which no
// registry records: live goroutines, how long runnable goroutines waited
// for a CPU (p50/p99 in µs since the process started), and the heap that
// the last GC found live (0 before the first GC). They are process-wide,
// so they are read per scrape rather than stored in a registry; nothing
// on the request path pays for them.
func runtimeLines() []string {
	samples := []metrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/sched/latencies:seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(samples)
	var lines []string
	if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
		lines = append(lines, fmt.Sprintf("gauge runtime.goroutines %d", v.Uint64()))
	}
	if v := samples[1].Value; v.Kind() == metrics.KindFloat64Histogram {
		h := v.Float64Histogram()
		lines = append(lines,
			fmt.Sprintf("gauge runtime.sched.latency_us.p50 %.0f", runtimeQuantile(h, 0.50)*1e6),
			fmt.Sprintf("gauge runtime.sched.latency_us.p99 %.0f", runtimeQuantile(h, 0.99)*1e6))
	}
	if v := samples[2].Value; v.Kind() == metrics.KindUint64 {
		lines = append(lines, fmt.Sprintf("gauge runtime.heap.live_bytes %d", v.Uint64()))
	}
	return lines
}

// runtimeQuantile returns the upper bound of the bucket that holds the
// q-quantile of h (its lower bound when that bucket is open above), or 0
// for an empty histogram.
func runtimeQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range h.Counts {
		if seen += c; seen >= rank {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
