package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. The harness records
// spans around its own calls into a layer's exported functions; nothing
// inside the program is instrumented. Start and End are nanoseconds
// since the tracer was made. Parent is the index of the span that caused
// this one (-1 for a root) and Request the request the work belongs to.
// N is how many operations the interval covers, for calls too short to
// time one at a time (an index probe is ~50 ns; a clock read is not
// much less).
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	N       int    `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the pass ends. It is off during
// the timed run: every recording site checks on first, so tracing-off
// costs one atomic load.
type tracer struct {
	on atomic.Bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// request and parent are what a span started from another goroutine
	// (a peer RPC the coordinator issues) attaches to: the traced pass
	// has one client, so one request is in flight at a time.
	request int
	parent  int
}

func newTracer() *tracer {
	// Sized for the busiest pass (a few hundred coordinator queries of
	// ~300 RPCs, two spans each), so recording never stops to copy.
	return &tracer{t0: time.Now(), parent: -1, spans: make([]span, 0, 1<<18)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// start opens a span and returns its index.
func (t *tracer) start(name string, parent, request int) int {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Request: request, N: 1})
	return len(t.spans) - 1
}

// startRoot opens a request's root span and makes it the one
// spans from other goroutines attach to.
func (t *tracer) startRoot(name string, request int) int {
	id := t.start(name, -1, request)
	t.mu.Lock()
	t.request, t.parent = request, id
	t.mu.Unlock()
	return id
}

// current is the request and root span in flight.
func (t *tracer) current() (request, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.request, t.parent
}

func (t *tracer) end(id int) { t.endN(id, 1) }

// endN closes a span that covered n operations.
func (t *tracer) endN(id, n int) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].End, t.spans[id].N = now, n
	t.mu.Unlock()
}

// timed records fn as one span.
func (t *tracer) timed(name string, request int, fn func()) {
	id := t.start(name, -1, request)
	fn()
	t.end(id)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes gives each span's duration minus the part of its interval
// that its child spans cover. Children may overlap each other (parallel
// peer RPCs) and may outlive the parent; the union is clipped to the
// parent's interval, so overlapping children are not subtracted twice.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// perOpMicros collects, for every span named name, its duration per
// covered operation in µs.
func perOpMicros(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.N > 0 {
			out = append(out, float64(s.dur())/1e3/float64(s.N))
		}
	}
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
