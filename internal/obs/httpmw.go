package obs

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tokenmagic/internal/obs/trace"
)

// statusRecorder captures the response status for metrics and logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// routeLabel flattens a request path into a metric-name segment:
// "/v1/batch" → "v1_batch". When a non-empty allowlist is given, paths
// outside it collapse to "other" so hostile or fat-fingered URLs cannot
// grow the registry without bound.
func routeLabel(path string, allowed map[string]bool) string {
	if len(allowed) > 0 && !allowed[path] {
		return "other"
	}
	p := strings.Trim(path, "/")
	if p == "" {
		return "root"
	}
	return strings.ReplaceAll(p, "/", "_")
}

func statusClass(code int) string {
	switch {
	case code < 200:
		return "1xx"
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// InstrumentHTTP wraps next with per-route telemetry recorded into reg under
// the "http.<service>." prefix:
//
//	http.<service>.<route>.requests      counter
//	http.<service>.<route>.status_<cls>  counter (2xx/3xx/4xx/5xx)
//	http.<service>.<route>.latency_us    histogram
//
// routes, when given, is the closed set of paths tracked individually;
// anything else is lumped under the "other" route. Each completed request is
// also logged at Debug level through slog.Default().
//
// The middleware additionally roots a request trace "<service>.<route>" in
// the default trace collector and finishes it with the response status, so
// everything downstream (LimitConcurrency's queue-wait, the framework's
// sample/verify/commit spans) hangs off one per-request span tree.
// Mount this OUTSIDE LimitConcurrency: then the latency histogram and the
// trace both cover queue wait, and shed requests are counted per route.
func InstrumentHTTP(reg *Registry, service string, next http.Handler, routes ...string) http.Handler {
	allowed := make(map[string]bool, len(routes))
	for _, r := range routes {
		allowed[r] = true
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		route := routeLabel(r.URL.Path, allowed)
		ctx, tr := trace.New(r.Context(), trace.Default(), service+"."+route)
		if tr != nil {
			r = r.WithContext(ctx)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)

		prefix := "http." + service + "." + route
		reg.Counter(prefix + ".requests").Inc()
		reg.Counter(prefix + ".status_" + statusClass(rec.status)).Inc()
		reg.Histogram(prefix+".latency_us", LatencyBucketsUS).Observe(elapsed.Microseconds())
		tr.Finish(strconv.Itoa(rec.status))

		slog.Debug("http request",
			"service", service,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"dur_us", elapsed.Microseconds())
	})
}
