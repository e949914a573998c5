package obs

import (
	"net/http"

	"tokenmagic/internal/obs/trace"
)

// LimitConcurrency wraps next with a per-service admission gate: at most
// maxInFlight requests execute at once, at most maxQueue more wait for a
// slot, and anything beyond that is shed immediately with 503 so a burst
// degrades into fast rejections instead of unbounded goroutine pile-up.
// Telemetry lands in reg:
//
//	http.<service>.in_flight      gauge   requests currently executing
//	http.<service>.queue_depth    gauge   requests waiting for a slot
//	http.<service>.rejected_busy  counter requests shed with 503
//
// A queued request honours its context: if the client gives up while
// waiting, the slot is surrendered and 503 returned without running next.
// maxInFlight ≤ 0 disables the gate entirely (next is returned unwrapped);
// maxQueue ≤ 0 means no waiting room — over-capacity requests shed at once.
//
// Mount this INSIDE InstrumentHTTP: time spent queued then lands in a
// "queue-wait" span of the request's trace and shed requests are annotated
// on it, so LimitConcurrency's behaviour is attributable per request, not
// just visible in the aggregate counters.
func LimitConcurrency(reg *Registry, service string, maxInFlight, maxQueue int, next http.Handler) http.Handler {
	if maxInFlight <= 0 {
		return next
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	inFlight := reg.Gauge("http." + service + ".in_flight")
	queueDepth := reg.Gauge("http." + service + ".queue_depth")
	rejected := reg.Counter("http." + service + ".rejected_busy")

	// Buffered-channel semaphores: holding an element of sem is the right to
	// execute; holding one of queue is the right to wait for sem.
	sem := make(chan struct{}, maxInFlight)
	var queue chan struct{}
	if maxQueue > 0 {
		queue = make(chan struct{}, maxQueue)
	}

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}: // fast path: a slot is free
		default:
			// Full: try to join the waiting room.
			if queue == nil {
				shed(w, r, rejected, "no_queue", "server busy")
				return
			}
			select {
			case queue <- struct{}{}:
			default:
				shed(w, r, rejected, "queue_full", "server busy")
				return
			}
			queueDepth.Add(1)
			ok := waitForSlot(r, sem)
			queueDepth.Add(-1)
			<-queue
			if !ok {
				shed(w, r, rejected, "cancelled_while_queued", "client gave up while queued")
				return
			}
		}
		inFlight.Add(1)
		defer func() {
			inFlight.Add(-1)
			<-sem
		}()
		next.ServeHTTP(w, r)
	})
}

// waitForSlot blocks a queued request until an execution slot frees or the
// client's context dies, accounting the wait as a "queue-wait" span of the
// request's trace.
func waitForSlot(r *http.Request, sem chan struct{}) bool {
	_, sp := trace.StartSpan(r.Context(), "queue-wait")
	defer sp.End()
	select {
	case sem <- struct{}{}:
		return true
	case <-r.Context().Done():
		sp.Annotate("outcome", "cancelled")
		return false
	}
}

// shed rejects r with 503, marking the request's trace with the reason.
func shed(w http.ResponseWriter, r *http.Request, rejected *Counter, reason, msg string) {
	trace.FromContext(r.Context()).Annotate("shed", reason)
	rejected.Inc()
	http.Error(w, msg, http.StatusServiceUnavailable)
}
