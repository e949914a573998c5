package obs

import (
	"tokenmagic/internal/obs/trace"
)

// obs sits above trace in the import graph: trace produces span durations,
// obs owns the histograms that summarise them. This file is the one place
// the two layers meet.

func init() {
	// Feed every ended span of the default collector into the default
	// registry, so per-stage latency gets p50/p99 through the ordinary
	// metrics path (/debug/metrics, expvar) next to the raw span trees on
	// /debug/traces.
	WireTraceStages(trace.Default(), Default())
}

// WireTraceStages points the collector's stage observer at reg: each ended
// span of name <stage> lands in the "trace.stage.<stage>.latency_us"
// histogram. A request ends a handful of spans, so the registry lookup per
// span is not worth caching.
func WireTraceStages(c *trace.Collector, reg *Registry) {
	c.SetStageObserver(func(stage string, durUS int64) {
		reg.Histogram("trace.stage."+stage+".latency_us", LatencyBucketsUS).Observe(durUS)
	})
}
