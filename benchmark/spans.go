package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented further). Spans of one
// operation share Req; Parent is the index of the enclosing span within the
// operation, -1 for the operation's root.
type span struct {
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps every finished operation's spans in memory until the run
// ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	ops   [][]span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// opTrace collects the spans of one operation; it is used by one goroutine
// at a time and handed to the recorder when the operation ends.
type opTrace struct {
	rec   *recorder
	req   int64
	spans []span
}

func (r *recorder) begin(req int64, name string) *opTrace {
	t := &opTrace{rec: r, req: req}
	t.start(-1, name)
	return t
}

// start opens a span under parent and returns its index.
func (t *opTrace) start(parent int, name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Req: t.req, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.rec.epoch))})
	return id
}

func (t *opTrace) end(id int) { t.spans[id].End = int64(time.Since(t.rec.epoch)) }

// finish closes the root span and files the operation.
func (t *opTrace) finish() {
	t.end(0)
	t.rec.mu.Lock()
	t.rec.ops = append(t.rec.ops, t.spans)
	t.rec.mu.Unlock()
}

// breakdown summarises the recorded operations: mean root time, the share
// of root time covered by the root's direct children, and each span name's
// total time as a share of total root time.
type breakdown struct {
	ops        int
	meanOpMS   float64
	claimedPct float64
	sharePct   map[string]float64
}

func (r *recorder) breakdown() breakdown {
	r.mu.Lock()
	defer r.mu.Unlock()
	var root, claimed int64
	byName := make(map[string]int64)
	for _, spans := range r.ops {
		root += spans[0].End - spans[0].Start
		for _, s := range spans[1:] {
			d := s.End - s.Start
			byName[s.Name] += d
			if s.Parent == 0 {
				claimed += d
			}
		}
	}
	b := breakdown{ops: len(r.ops), sharePct: make(map[string]float64)}
	if b.ops == 0 || root == 0 {
		return b
	}
	b.meanOpMS = float64(root) / float64(b.ops) / float64(time.Millisecond)
	b.claimedPct = 100 * float64(claimed) / float64(root)
	for name, d := range byName {
		b.sharePct[name] = 100 * float64(d) / float64(root)
	}
	return b
}

// write stores every span as one JSON line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, spans := range r.ops {
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				r.mu.Unlock()
				_ = f.Close()
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
