// Package obs is the engine's request-scoped observability substrate:
// a Trace carried in context.Context records a span tree — plan and
// cache lookup, every indexed fetch with its keys and rows, joins,
// dedup, the scan fallback, per-shard route-vs-scatter accounting,
// Apply's stage/validate/commit phases, WAL append+fsync, checkpoint
// writes — with monotonic timings and per-operator row counts. The
// frontends surface it as EXPLAIN ANALYZE (bequery -profile, the
// server's "profile": true NDJSON trailer) and as the slow-query log.
//
// The cardinal design constraint is that an engine serving requests
// WITHOUT tracing must not pay for the instrumentation: every record
// site first calls FromContext, which is guarded by one atomic load of
// the package-wide live-trace count and returns nil without touching
// the context when no trace exists anywhere in the process. All Trace
// and Span methods are nil-receiver-safe no-ops, so call sites need no
// second branch. The guard function is //bevet:hotpath-annotated: the
// in-tree hotpathalloc analyzer proves the disabled path stays
// allocation-free.
//
// A Trace is safe for concurrent use (streamed results drain on the
// consumer's goroutine; a remote scatter fetch asks its peers at once),
// but span NESTING follows the coordinator goroutine's call structure:
// Start pushes onto a stack, End pops. Concurrent phases record
// through counters (ShardCounters) or a single span around the fanout
// rather than per-goroutine spans.
package obs

import (
	"context"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// live counts traces that were created and not yet finished, process
// wide. It is the one-atomic-load guard that keeps the disabled record
// path free: FromContext returns nil without a context lookup while it
// is zero.
var live atomic.Int64

// Enabled reports whether any trace is live in the process — the same
// guard FromContext uses, for callers that want to skip assembling
// trace inputs (a detail string, a counter struct) entirely.
func Enabled() bool { return live.Load() > 0 }

// traceKey is the context key a Trace travels under.
type traceKey struct{}

// NewContext returns a context carrying tr. The record sites downstream
// (plan executor, evaluator, update pipeline, durable store) discover
// it with FromContext.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// FromContext returns the request's trace, or nil when tracing is off.
// It sits on every operator's path, so the disabled branch must stay
// one atomic load with zero allocation — the slow context lookup runs
// only while some trace is live in the process.
//
//bevet:hotpath
func FromContext(ctx context.Context) *Trace {
	if live.Load() == 0 {
		return nil
	}
	return fromContextSlow(ctx)
}

// fromContextSlow is the context lookup behind FromContext's guard; it
// runs only while at least one trace is live in the process.
func fromContextSlow(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// Span is one node of the trace tree: a named phase with its elapsed
// wall-clock and per-operator accounting. Fields are written under the
// owning trace's lock and are read-only after Trace.Finish.
type Span struct {
	// Name is the phase: "plan", "fetch", "project", "stream+dedup",
	// "scan", "apply.stage", "wal.append+fsync", "shard 2 scatter", …
	Name string `json:"name"`
	// Detail qualifies the phase: the plan step with its access
	// constraint, cache hit/miss.
	Detail string `json:"detail,omitempty"`
	// ElapsedNS is the span's monotonic wall-clock in nanoseconds.
	// Synthesized counter spans (per-shard accounting) report 0.
	ElapsedNS int64 `json:"elapsed_ns"`
	// Rows is the operator's output row count.
	Rows int64 `json:"rows"`
	// Fetched and Keys are the indexed-access accounting of a fetch
	// span: tuples retrieved and distinct index lookups. Summed over a
	// trace they reconcile with Result.Stats.Fetched/FetchKeys.
	Fetched int64 `json:"fetched,omitempty"`
	Keys    int64 `json:"keys,omitempty"`
	// Scanned is the scan-fallback accounting: tuples the conventional
	// evaluator read. Reconciles with Result.Stats.Scanned.
	Scanned int64 `json:"scanned,omitempty"`
	// AllocBytes is the process-global heap-allocation delta across the
	// span — an attribution HINT, not an exact per-operator figure:
	// concurrent requests allocate into the same counter.
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	// Children are the sub-phases, in start order.
	Children []*Span `json:"children,omitempty"`

	tr    *Trace
	start time.Time
	alloc uint64
}

// Trace records one request's span tree. Create with NewTrace, attach
// with NewContext, close with Finish. The zero value is not usable,
// but a nil *Trace is: every method no-ops, which is what keeps call
// sites single-branch.
type Trace struct {
	mu       sync.Mutex
	root     *Span
	stack    []*Span
	finished bool
	onFinish []func(*Trace)
}

// NewTrace starts a trace whose root span carries name; the caller owes
// a Finish (the live-trace guard counts until then).
func NewTrace(name string) *Trace {
	tr := &Trace{}
	root := &Span{Name: name, tr: tr, start: time.Now(), alloc: heapAllocBytes()}
	tr.root = root
	tr.stack = []*Span{root}
	live.Add(1)
	return tr
}

// Start opens a child span of the innermost open span and returns it;
// the caller owes an End. On a nil trace it returns nil, and every
// Span method on nil is a no-op.
func (t *Trace) Start(name string) *Span {
	return t.StartDetail(name, "")
}

// StartDetail is Start with the span's Detail set up front.
func (t *Trace) StartDetail(name, detail string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{Name: name, Detail: detail, tr: t, start: time.Now(), alloc: heapAllocBytes()}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished {
		return nil
	}
	parent := t.stack[len(t.stack)-1]
	parent.Children = append(parent.Children, sp)
	t.stack = append(t.stack, sp)
	return sp
}

// End closes the span, recording its elapsed time and allocation delta.
func (s *Span) End() {
	if s == nil {
		return
	}
	elapsed := time.Since(s.start)
	alloc := heapAllocBytes() - s.alloc
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ElapsedNS = elapsed.Nanoseconds()
	s.AllocBytes = int64(alloc)
	// Pop back to the span's parent; an out-of-order End (a bug in the
	// instrumented code) pops everything above it too rather than
	// corrupting later parenting.
	for i := len(t.stack) - 1; i > 0; i-- {
		if t.stack[i] == s {
			t.stack = t.stack[:i]
			return
		}
	}
}

// SetRows records the operator's output row count.
func (s *Span) SetRows(n int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Rows = n
	s.tr.mu.Unlock()
}

// SetFetch records a fetch span's indexed-access accounting.
func (s *Span) SetFetch(fetched, keys int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Fetched, s.Keys = fetched, keys
	s.tr.mu.Unlock()
}

// SetScanned records a scan span's tuples-read accounting.
func (s *Span) SetScanned(n int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Scanned = n
	s.tr.mu.Unlock()
}

// SetDetail sets the span's Detail after the fact (a cache verdict is
// only known once the lookup ran).
func (s *Span) SetDetail(d string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Detail = d
	s.tr.mu.Unlock()
}

// AddCounterSpan appends a synthesized, untimed span under the root —
// how counter-based accounting (per-shard route/scatter totals) lands
// in the tree at Finish time.
func (t *Trace) AddCounterSpan(name, detail string, rows, fetched, keys int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.root.Children = append(t.root.Children, &Span{
		Name: name, Detail: detail, Rows: rows, Fetched: fetched, Keys: keys, tr: t,
	})
}

// OnFinish registers a hook Finish runs before closing the root —
// counter owners use it to convert their totals into spans.
func (t *Trace) OnFinish(fn func(*Trace)) {
	if t == nil || fn == nil {
		return
	}
	t.mu.Lock()
	t.onFinish = append(t.onFinish, fn)
	t.mu.Unlock()
}

// Finish closes the trace: hooks run, the root span ends, the live
// guard drops, and the (now immutable) root is returned. Finish is
// idempotent; later calls return the same tree.
func (t *Trace) Finish() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return t.root
	}
	hooks := t.onFinish
	t.onFinish = nil
	t.mu.Unlock()
	for _, fn := range hooks {
		fn(t)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.finished {
		t.finished = true
		t.root.ElapsedNS = time.Since(t.root.start).Nanoseconds()
		t.root.AllocBytes = int64(heapAllocBytes() - t.root.alloc)
		t.stack = t.stack[:1]
		live.Add(-1)
	}
	return t.root
}

// Root returns the root span (useful mid-flight for diagnostics; the
// tree is only stable after Finish).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root
}

// Walk visits every span of the tree depth-first, root included.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// TopSpans returns the n longest-elapsed spans below the root (the
// root itself spans the whole request and would always win), longest
// first — the slow-query log's "where did the time go" digest.
func TopSpans(root *Span, n int) []*Span {
	if root == nil || n <= 0 {
		return nil
	}
	var all []*Span
	for _, c := range root.Children {
		c.Walk(func(s *Span) { all = append(all, s) })
	}
	// Insertion sort into a bounded prefix: n is tiny (3).
	var top []*Span
	for _, s := range all {
		i := len(top)
		for i > 0 && top[i-1].ElapsedNS < s.ElapsedNS {
			i--
		}
		if i < n {
			top = append(top, nil)
			copy(top[i+1:], top[i:])
			top[i] = s
			if len(top) > n {
				top = top[:n]
			}
		}
	}
	return top
}

// heapAllocSample is the runtime/metrics sample name behind span
// allocation deltas: cumulative heap bytes allocated, process-wide.
const heapAllocSample = "/gc/heap/allocs:bytes"

// heapAllocBytes reads the cumulative heap allocation counter. Unlike
// runtime.ReadMemStats it does not stop the world, so sampling it per
// span is affordable on the (opt-in) traced path.
func heapAllocBytes() uint64 {
	sample := []metrics.Sample{{Name: heapAllocSample}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}
