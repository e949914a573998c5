package main

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/workload"
)

// load is how operations reach the system under test.
//
// A closed loop runs clients that each send the next operation when the
// previous one returns: callers that wait for a reply. An open loop sends
// operations at Poisson arrival times whatever the system does, the way
// independent wallets behave; an arrival waits for one of clients
// connections, and its latency runs from the time it was due, so a stall
// shows on every arrival queued behind it.
type load struct {
	clients int
	rate    float64 // open-loop arrivals per second; 0 selects the closed loop
	warmup  time.Duration
}

// maxDrain bounds how long open-loop arrivals due inside the window may run
// past it; arrivals not started by then count as failed.
const maxDrain = 30 * time.Second

// op performs one operation on target. An errIncorrect error marks a wrong
// output rather than a refused or failed operation.
type op func(id int64, target chain.TokenID) error

// errIncorrect wraps an output that fails a correctness check.
type errIncorrect struct{ msg string }

func (e errIncorrect) Error() string { return e.msg }

// loadResult is what one load run measured. Counts other than completed
// cover only operations issued after the warm-up.
type loadResult struct {
	attempted, failed int
	issued            int       // every operation, warm-up included
	completed         int       // successful operations, warm-up included
	latMS             []float64 // latency of each measured success
	lateMS            []float64 // open loop: how late the generator released each measured arrival
	// first and last bound the measured operations: the earliest issue (or
	// due) time and the latest completion.
	first, last time.Time
	incorrect   []string
	firstErr    error
}

// opsPerSecond is the measured successes over the time they took, from the
// first measured issue to the last measured completion.
func (r loadResult) opsPerSecond() float64 {
	return ratio(float64(len(r.latMS)), r.last.Sub(r.first).Seconds())
}

// targets hands out spend targets in the seeded order of a uniform
// (without-replacement) spend stream.
type targets struct {
	mu     sync.Mutex
	stream *workload.SpendStream
}

func newTargets(pop chain.TokenSet, seed int64) (*targets, error) {
	s, err := workload.NewSpendStream("uniform", pop, seed)
	if err != nil {
		return nil, err
	}
	return &targets{stream: s}, nil
}

func (t *targets) next() (chain.TokenID, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stream.Next()
}

// take draws up to n targets.
func (t *targets) take(n int) []chain.TokenID {
	var out []chain.TokenID
	for len(out) < n {
		tok, ok := t.next()
		if !ok {
			break
		}
		out = append(out, tok)
	}
	return out
}

// collector accumulates outcomes from concurrent clients.
type collector struct {
	mu  sync.Mutex
	res loadResult
}

// record files one operation that was issued (or, in the open loop, due)
// at begin and returned err.
func (c *collector) record(measured bool, begin time.Time, err error) {
	end := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	var inc errIncorrect
	switch {
	case errors.As(err, &inc):
		c.res.incorrect = append(c.res.incorrect, inc.msg)
	case err != nil && c.res.firstErr == nil:
		c.res.firstErr = err
	}
	c.res.issued++
	if err == nil {
		c.res.completed++
	}
	if !measured {
		return
	}
	c.res.attempted++
	if c.res.first.IsZero() || begin.Before(c.res.first) {
		c.res.first = begin
	}
	if end.After(c.res.last) {
		c.res.last = end
	}
	if err != nil {
		c.res.failed++
		return
	}
	c.res.latMS = append(c.res.latMS, msOf(end.Sub(begin)))
}

// drive runs operations against do for the warm-up and then for window,
// drawing targets from next (until it runs dry), and returns what the window
// measured: operations issued after the warm-up and before the window
// closed, each run to completion.
func drive(l load, window time.Duration, seed int64, next func() (chain.TokenID, bool), do op) loadResult {
	if l.rate > 0 {
		return driveOpen(l, window, seed, next, do)
	}
	var (
		c       collector
		ids     atomic.Int64
		wg      sync.WaitGroup
		warmEnd = time.Now().Add(l.warmup)
		end     = warmEnd.Add(window)
	)
	for i := 0; i < l.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				begin := time.Now()
				if !begin.Before(end) {
					return
				}
				target, ok := next()
				if !ok {
					return
				}
				err := do(ids.Add(1), target)
				c.record(!begin.Before(warmEnd), begin, err)
			}
		}()
	}
	wg.Wait()
	return c.res
}

// arrival is one open-loop operation: its target and when it is due,
// as an offset from the start of the run.
type arrival struct {
	id       int64
	target   chain.TokenID
	at       time.Duration
	measured bool
}

// schedule draws open-loop arrival offsets: rate × length arrival times
// spread uniformly over each of the warm-up and the window — a Poisson
// process conditioned on its count, so every seed offers the same load.
func schedule(l load, window time.Duration, rng *rand.Rand) []time.Duration {
	var at []time.Duration
	for _, part := range []struct{ from, length time.Duration }{{0, l.warmup}, {l.warmup, window}} {
		n := int(l.rate * part.length.Seconds())
		for i := 0; i < n; i++ {
			at = append(at, part.from+time.Duration(rng.Int63n(int64(part.length))))
		}
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

func driveOpen(l load, window time.Duration, seed int64, next func() (chain.TokenID, bool), do op) loadResult {
	// The schedule and each arrival's target are drawn up front from the
	// seed, so the same seed replays the same arrivals.
	var sched []arrival
	for i, at := range schedule(l, window, rand.New(rand.NewSource(seed^0x617272))) {
		t, ok := next()
		if !ok {
			break
		}
		sched = append(sched, arrival{id: int64(i + 1), target: t, at: at, measured: at >= l.warmup})
	}

	var (
		c    collector
		wg   sync.WaitGroup
		ch   = make(chan arrival, len(sched)) // one slot per scheduled arrival: the generator never blocks
		late []float64
	)
	start := time.Now()
	giveUp := start.Add(l.warmup + window + maxDrain)
	for i := 0; i < l.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range ch {
				due := start.Add(a.at)
				var err error
				if time.Now().After(giveUp) {
					err = errors.New("arrival not started before the drain limit")
				} else {
					err = do(a.id, a.target)
				}
				c.record(a.measured, due, err)
			}
		}()
	}
	for _, a := range sched {
		time.Sleep(time.Until(start.Add(a.at)))
		if a.measured {
			late = append(late, msOf(time.Since(start.Add(a.at))))
		}
		ch <- a
	}
	close(ch)
	wg.Wait()
	c.res.lateMS = late
	return c.res
}
