// Package server exposes a core.Queryable engine over HTTP — the network
// boundary in front of the paper's bounded-evaluation serving stack. The
// same consistency and admission guarantees the in-process API gives
// hold on the wire:
//
//   - POST /v1/query   JSON request → NDJSON row stream. Per-request
//     budget/timeout/fallback knobs map onto core.QueryOptions;
//     a budget refusal or a not-bounded refusal is a structured 4xx
//     payload emitted before any data is touched. Rows are produced via
//     core.WithStream from ONE engine snapshot, however many updates
//     land while the response streams.
//   - POST /v1/apply   delta TSV body → atomic Engine.Apply. All or
//     nothing: a delta that would violate a cardinality bound is a 409
//     carrying the full violation list, with no visible effect.
//   - GET  /v1/explain plan/coverage report for a named query.
//   - GET  /v1/schema  relations, constraints, named queries.
//   - GET  /healthz    liveness plus the engine size.
//   - GET  /metrics    Prometheus-style counters: in-flight, admission
//     rejections, plan-cache hit rate, cumulative fetched/scanned.
//
// Concurrency: a bounded admission semaphore caps in-flight query/apply
// requests; a request that cannot get a slot within the queue timeout is
// answered 503 with Retry-After, so overload degrades by refusing fast
// instead of queueing without bound. Each request's context is the HTTP
// request context: a client disconnect cancels in-flight plan execution.
// Graceful shutdown (http.Server.Shutdown, as cmd/beserve wires it)
// stops accepting and drains streaming responses before the process —
// and with it the snapshot — goes away.
//
// The server programs against core.Queryable, so fronting the in-memory
// engine or a K-shard internal/shard engine is a constructor choice.
package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/durable"
	"repro/internal/live"
	"repro/internal/ndjson"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/schema"
)

// Catalog is the serving surface the server publishes: the schemas and
// the named queries clients may invoke (ad-hoc query text is validated
// against Schema).
type Catalog struct {
	Schema *schema.Schema
	Access *access.Schema
	// Queries maps the names clients may pass as "query" to the CQs they
	// run; Params carries each query's declared parameter list, for
	// /v1/explain.
	Queries map[string]*cq.CQ
	Params  map[string][]string
}

// CatalogFromDocument builds the serving catalog from a parsed .bq
// document: CQ rules become named queries (unions are served via the
// request's ad-hoc "text" instead). cmd/bequery, cmd/beserve and the
// e2e suite all assemble their document catalogs here, so what "-file"
// means cannot drift between the CLI and the server.
func CatalogFromDocument(doc *parser.Document) Catalog {
	queries := map[string]*cq.CQ{}
	params := map[string][]string{}
	for _, q := range doc.Queries {
		if q.IsCQ() {
			queries[q.Name] = q.Subs[0]
			params[q.Name] = q.Params
		}
	}
	return Catalog{Schema: doc.Schema, Access: doc.Access, Queries: queries, Params: params}
}

// Options tunes the server; the zero value is sensible.
type Options struct {
	// MaxInFlight caps concurrently served /v1/query and /v1/apply
	// requests (the admission semaphore). 0 means DefaultMaxInFlight.
	MaxInFlight int
	// QueueTimeout is how long a request waits for an admission slot
	// before being answered 503; it doubles as the Retry-After hint.
	// 0 means DefaultQueueTimeout.
	QueueTimeout time.Duration
	// StallTimeout bounds how long a single read from (or write to) the
	// client may block. Without it, a connected-but-stalled client — a
	// reader that stops draining a streaming response, or an uploader
	// that stops sending its delta — would pin its admission slot
	// forever and eventually wedge the server at MaxInFlight. The
	// deadline is rolling (refreshed per I/O operation), so slow-but-
	// moving clients are fine. 0 means DefaultStallTimeout.
	StallTimeout time.Duration
	// SlowLog, when non-nil, logs every /v1/query whose wall-clock
	// crosses its threshold as one structured JSON line (cache key,
	// bound, stats, top-3 spans). Requests then carry a trace even
	// without "profile": true, so the log has spans to digest.
	SlowLog *obs.SlowLog
}

const (
	DefaultMaxInFlight  = 64
	DefaultQueueTimeout = time.Second
	DefaultStallTimeout = 30 * time.Second
	// DefaultMaxBodyBytes caps request bodies (JSON and delta TSV
	// alike).
	DefaultMaxBodyBytes = 8 << 20

	// maxQueryText bounds ad-hoc query text; planning cost grows with
	// query size, and no legitimate query is this long.
	maxQueryText = 16 << 10
	// flushStride is how many NDJSON rows are written between explicit
	// response flushes.
	flushStride = 256
	// chunkSize is the response buffer between the NDJSON encoder and
	// the connection: a wide answer reaches the ResponseWriter in writes
	// of this many bytes, each guarded by one stall deadline.
	chunkSize = 32 << 10
)

// chunkPool recycles the per-request chunk buffers across requests, so
// an answer costs its bytes and not a fresh buffer.
var chunkPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, chunkSize) }}

// Server is an http.Handler serving a Queryable engine. Construct with
// New; the zero value is not usable.
type Server struct {
	eng  core.Queryable
	cat  Catalog
	opts Options
	// slots is the admission semaphore: a request holds one slot for its
	// whole lifetime, including while its response streams.
	slots   chan struct{}
	mux     *http.ServeMux
	metrics metrics
}

// New builds a server over eng. The engine must already hold data
// (callers Load before serving, so a request never observes the
// pre-Load state).
func New(eng core.Queryable, cat Catalog, opts Options) (*Server, error) {
	if eng == nil {
		return nil, fmt.Errorf("server: nil engine")
	}
	if cat.Schema == nil {
		return nil, fmt.Errorf("server: catalog has no schema")
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = DefaultMaxInFlight
	}
	if opts.QueueTimeout <= 0 {
		opts.QueueTimeout = DefaultQueueTimeout
	}
	if opts.StallTimeout <= 0 {
		opts.StallTimeout = DefaultStallTimeout
	}
	s := &Server{
		eng:   eng,
		cat:   cat,
		opts:  opts,
		slots: make(chan struct{}, opts.MaxInFlight),
	}
	s.metrics.newHistograms()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/apply", s.handleApply)
	mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /v1/explain", s.handleExplain)
	mux.HandleFunc("GET /v1/schema", s.handleSchema)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// ServeHTTP counts the request under its endpoint label (resolved from
// the mux pattern BEFORE dispatch, so refused and malformed requests
// are counted too), serves it through a status-capturing writer, and
// buckets the finished response by status class.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	_, pattern := s.mux.Handler(r)
	s.metrics.requests[endpointOf(pattern)].Add(1)
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)
	s.metrics.countResponse(sw.status())
}

// statusWriter records the response status for the status-class
// counters. Unwrap keeps http.ResponseController (flush, deadlines)
// working through the wrapper — handlers must use the controller, not
// direct type assertions, for those optional interfaces.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// status is the recorded code; a handler that never wrote anything is
// an implicit 200.
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// acquire takes an admission slot, waiting up to the queue timeout. It
// reports false when the request should be refused (saturation) or the
// client has gone away.
func (s *Server) acquire(ctx context.Context) bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
	}
	t := time.NewTimer(s.opts.QueueTimeout)
	defer t.Stop()
	select {
	case s.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	case <-t.C:
		return false
	}
}

func (s *Server) release() { <-s.slots }

// admit wraps acquire with the 503 + Retry-After refusal. The returned
// cleanup releases the slot; ok=false means the refusal (or nothing, if
// the client disconnected) was already written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (func(), bool) {
	if s.acquire(r.Context()) {
		s.metrics.inFlight.Add(1)
		return func() {
			s.metrics.inFlight.Add(-1)
			s.release()
		}, true
	}
	if r.Context().Err() != nil {
		// Client gone while queueing: nothing useful to write.
		return nil, false
	}
	s.metrics.saturated.Add(1)
	retry := int(s.opts.QueueTimeout / time.Second)
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeError(w, http.StatusServiceUnavailable, apiError{
		Code: "saturated",
		Message: fmt.Sprintf("server at capacity (%d requests in flight); retry after %ds",
			s.opts.MaxInFlight, retry),
	})
	return nil, false
}

// handleQuery serves POST /v1/query: decode and validate the request,
// admit it, refuse-or-plan through Engine.Query, then stream the answer
// rows as NDJSON. Planning errors surface as structured payloads with
// real status codes; once streaming has begun, a cut (deadline, client
// disconnect) is reported in the X-Beserve-Error trailer — a truncated
// body never carries an empty trailer, so clients can tell short from
// complete.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, apiErr := decodeQueryRequest(r)
	if apiErr != nil {
		writeError(w, apiErr.status(), *apiErr)
		return
	}
	q, qopts, deadline, apiErr := s.resolve(req)
	if apiErr != nil {
		writeError(w, apiErr.status(), *apiErr)
		return
	}
	done, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer done()
	// The request carries a trace when the client asked for a profile or
	// the operator runs a slow-query log — otherwise the engine's record
	// sites stay on their zero-cost disabled path.
	ctx := r.Context()
	var tr *obs.Trace
	if req.Profile || s.opts.SlowLog.Enabled() {
		tr = obs.NewTrace("query")
		defer tr.Finish()
		ctx = obs.NewContext(ctx, tr)
	}
	res, err := s.eng.Query(ctx, q, append(qopts, core.WithStream())...)
	if err != nil {
		e := queryError(err)
		writeError(w, e.status(), e)
		return
	}
	// WithStream defers execution, so a deadline that has already passed
	// (spent on queueing or planning) would otherwise surface as a 200
	// with an empty, cut stream. Refuse it as a structured 504 while the
	// status line is still ours to choose.
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		writeError(w, http.StatusGatewayTimeout, apiError{Code: "deadline_exceeded",
			Message: fmt.Sprintf("request timeout %s expired before execution began", req.Timeout)})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("Trailer", "X-Beserve-Fetched, X-Beserve-Scanned, X-Beserve-Elapsed, X-Beserve-Error")
	h.Set("X-Beserve-Mode", res.Mode.String())
	h.Set("X-Beserve-Cache-Hit", strconv.FormatBool(res.Stats.CacheHit))
	w.WriteHeader(http.StatusOK)
	// Rows are encoded into a pooled chunk buffer in front of the
	// stallWriter, so the connection sees one guarded write per chunk
	// rather than one per row. The flush closure empties the buffer and
	// flushes the response on the first row (streaming clients see data
	// as soon as it exists) and every flushStride rows after it; the
	// handler empties the tail below. Per-row flushing would cost a
	// syscall and an undersized chunk per line on large scans. The flush
	// goes through ResponseController so it traverses the statusWriter
	// wrapper (Unwrap), where a direct http.Flusher assertion would not.
	rc := http.NewResponseController(w)
	out := &stallWriter{w: w, rc: rc, stall: s.opts.StallTimeout, rows: &s.metrics.rows}
	buf := chunkPool.Get().(*bufio.Writer)
	buf.Reset(out)
	defer func() {
		buf.Reset(nil)
		chunkPool.Put(buf)
	}()
	n := 0
	flush := func() {
		if n%flushStride == 0 && buf.Flush() == nil {
			_ = rc.Flush()
		}
		n++
	}
	werr := ndjson.Write(buf, res, flush)
	// The rows still buffered go out whether or not the stream was cut:
	// a deadline keeps the rows produced before it. A failed final write
	// is a cut like any other.
	if err := buf.Flush(); werr == nil {
		werr = err
	}
	root := tr.Finish()
	if req.Profile && werr == nil {
		// EXPLAIN ANALYZE trailer: one {"profile": <span tree>} line
		// after the rows. Written to w directly so the rows-streamed
		// counters keep counting answer rows only.
		werr = ndjson.WriteProfile(w, root, func() { _ = rc.Flush() })
	}
	h.Set("X-Beserve-Fetched", strconv.FormatInt(res.Stats.Fetched, 10))
	h.Set("X-Beserve-Scanned", strconv.FormatInt(res.Stats.Scanned, 10))
	h.Set("X-Beserve-Elapsed", res.Stats.Elapsed.String())
	if werr != nil {
		s.metrics.streamCuts.Add(1)
		h.Set("X-Beserve-Error", werr.Error())
	}
	s.metrics.queryLatency.Observe(res.Stats.Elapsed.Seconds())
	s.metrics.fetchKeys.Observe(float64(res.Stats.FetchKeys))
	s.metrics.rowsOut.Observe(float64(out.n))
	s.recordSlowQuery(req, q, res, root)
}

// recordSlowQuery emits the structured slow-query line when the request
// crossed the operator's threshold.
func (s *Server) recordSlowQuery(req *QueryRequest, q core.Query, res *core.Result, root *obs.Span) {
	sl := s.opts.SlowLog
	if !sl.Enabled() {
		return
	}
	entry := obs.SlowEntry{
		Query:     req.Query,
		Mode:      res.Mode.String(),
		Fetched:   res.Stats.Fetched,
		Scanned:   res.Stats.Scanned,
		FetchKeys: res.Stats.FetchKeys,
		CacheHit:  res.Stats.CacheHit,
	}
	if entry.Query == "" {
		entry.Query = req.Text
	}
	if ck, ok := q.(interface{ CanonicalKey() string }); ok {
		entry.CacheKey = ck.CanonicalKey()
	}
	if res.Bound != nil {
		entry.Bound = res.Bound.Fetched
	}
	sl.Record(entry, res.Stats.Elapsed, root)
}

// stallWriter is the streaming response writer under the chunk
// buffer: it counts emitted NDJSON lines for /metrics (one bytes.Count
// and one atomic add per chunk), and it arms a rolling write deadline
// before every chunk write so a connected-but-stalled client (TCP zero
// window) unblocks the handler after StallTimeout instead of pinning
// its admission slot forever. The deadline is re-armed per chunk
// write — a slow-but-draining client never hits it, and slow row
// PRODUCTION (engine side) does not count against it. SetWriteDeadline
// errors are ignored: a ResponseWriter without deadline support
// (httptest's recorder) just runs unguarded.
type stallWriter struct {
	w     io.Writer
	rc    *http.ResponseController
	stall time.Duration
	rows  *atomic.Int64
	// n counts this response's lines (the global counter aggregates all
	// requests) — it feeds the rows-per-request histogram.
	n int64
}

func (c *stallWriter) Write(p []byte) (int, error) {
	_ = c.rc.SetWriteDeadline(time.Now().Add(c.stall))
	n, err := c.w.Write(p)
	lines := int64(bytes.Count(p[:n], []byte{'\n'}))
	c.rows.Add(lines)
	c.n += lines
	return n, err
}

// stallReader is the request-body counterpart of stallWriter: a rolling
// read deadline per Read, so an uploader that stops sending unblocks
// the handler after StallTimeout.
type stallReader struct {
	r     io.Reader
	rc    *http.ResponseController
	stall time.Duration
}

func (c *stallReader) Read(p []byte) (int, error) {
	_ = c.rc.SetReadDeadline(time.Now().Add(c.stall))
	return c.r.Read(p)
}

// handleApply serves POST /v1/apply: the body is a delta TSV (the same
// format bequery -apply reads), applied atomically. The response
// reports the net effect and the |D| of the version this write
// committed, not of whatever committed after it; a rejected delta is a
// 409 carrying every violation.
func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	done, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer done()
	body := &stallReader{r: http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes),
		rc: http.NewResponseController(w), stall: s.opts.StallTimeout}
	delta, err := live.ReadDeltaTSV(body, s.cat.Schema)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, apiError{
				Code:    "body_too_large",
				Message: fmt.Sprintf("delta body exceeds the %d-byte limit", DefaultMaxBodyBytes),
			})
			return
		}
		writeError(w, http.StatusBadRequest, apiError{Code: "bad_delta", Message: err.Error()})
		return
	}
	start := time.Now()
	res, err := s.eng.Apply(r.Context(), delta)
	s.metrics.applyLatency.Observe(time.Since(start).Seconds())
	if err != nil {
		// queryError maps a *live.ViolationError to the 409 payload.
		e := queryError(err)
		writeError(w, e.status(), e)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Inserted int `json:"inserted"`
		Deleted  int `json:"deleted"`
		Size     int `json:"size"`
	}{res.Inserted, res.Deleted, res.Size})
}

// Checkpointer is the optional durability surface of an engine:
// shard.Engine (and so cluster.Engine) implements it; the in-memory
// core.Engine does not. The server discovers it by
// assertion rather than widening core.Queryable — engines that persist
// nothing owe nothing to durability.
type Checkpointer interface {
	Checkpoint(ctx context.Context) (uint64, error)
}

// handleCheckpoint serves POST /v1/checkpoint: persist the current
// snapshot as a compact checkpoint and compact the WAL behind it — the
// admin hook operators call before a planned restart so recovery is
// replay-free. The response reports the version captured. An engine
// running without a data directory answers 409 "not_durable".
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	ck, ok := s.eng.(Checkpointer)
	if !ok {
		writeError(w, http.StatusConflict, apiError{
			Code:    "not_durable",
			Message: "engine was started without a data directory",
		})
		return
	}
	done, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer done()
	v, err := ck.Checkpoint(r.Context())
	if err != nil {
		if errors.Is(err, durable.ErrNotDurable) {
			writeError(w, http.StatusConflict, apiError{
				Code:    "not_durable",
				Message: "engine was started without a data directory",
			})
			return
		}
		writeError(w, http.StatusInternalServerError, apiError{Code: "internal", Message: err.Error()})
		return
	}
	s.metrics.checkpoints.Add(1)
	writeJSON(w, http.StatusOK, struct {
		Version uint64 `json:"version"`
	}{v})
}

// handleExplain serves GET /v1/explain?query=NAME: the engine's full
// coverage/BEP/plan/bound report as text.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("query")
	q, ok := s.cat.Queries[name]
	if !ok {
		writeError(w, http.StatusNotFound, apiError{
			Code:    "unknown_query",
			Message: fmt.Sprintf("no query named %q", name),
		})
		return
	}
	out, err := s.eng.Explain(q, s.cat.Params[name])
	if err != nil {
		writeError(w, http.StatusInternalServerError, apiError{Code: "internal", Message: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, out)
}

// handleSchema serves GET /v1/schema: the relations, constraints and
// named queries a client can program against.
func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	type relJSON struct {
		Name  string   `json:"name"`
		Attrs []string `json:"attrs"`
	}
	type queryJSON struct {
		Name   string   `json:"name"`
		Free   []string `json:"free"`
		Params []string `json:"params,omitempty"`
	}
	var rels []relJSON
	for _, rel := range s.cat.Schema.Relations() {
		attrs := make([]string, len(rel.Attrs))
		for i, a := range rel.Attrs {
			attrs[i] = string(a)
		}
		rels = append(rels, relJSON{Name: rel.Name, Attrs: attrs})
	}
	var constraints []string
	if s.cat.Access != nil {
		for _, c := range s.cat.Access.Constraints {
			constraints = append(constraints, c.String())
		}
	}
	var queries []queryJSON
	for _, name := range sortedNames(s.cat.Queries) {
		q := s.cat.Queries[name]
		queries = append(queries, queryJSON{Name: name, Free: q.Free, Params: s.cat.Params[name]})
	}
	st := s.eng.Stats()
	writeJSON(w, http.StatusOK, struct {
		Relations   []relJSON   `json:"relations"`
		Constraints []string    `json:"constraints"`
		Queries     []queryJSON `json:"queries"`
		Shards      int         `json:"shards"`
		Size        int         `json:"size"`
	}{rels, constraints, queries, st.Shards, st.Size})
}

// handleHealthz serves GET /healthz: liveness, the engine size, and the
// committed snapshot version — after a durable restart the version
// resumes where the previous process stopped, which is how the e2e
// suite (and operators) confirm recovery actually replayed the log.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	writeJSON(w, http.StatusOK, struct {
		Status  string `json:"status"`
		Size    int    `json:"size"`
		Version uint64 `json:"version"`
	}{"ok", st.Size, st.Version})
}

// sortedNames returns the catalog's query names in sorted order, so
// /v1/schema listings are deterministic across runs.
func sortedNames(m map[string]*cq.CQ) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
