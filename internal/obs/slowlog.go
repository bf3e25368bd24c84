// The structured slow-query log: when a request's wall-clock crosses
// the operator-configured threshold (-slow-query-ms on beserve and
// bequery), one JSON line goes to the log writer carrying the query's
// canonical plan-cache key, its static access bound, the flat result
// stats, and the top-3 spans by elapsed time — enough to answer "what
// was slow and where" from the log alone, greppable and jq-able.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SlowLog emits one JSON line per over-threshold request. The zero
// threshold disables it; a nil *SlowLog is a no-op, so frontends pass
// it around unconditionally.
type SlowLog struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
}

// NewSlowLog returns a slow-query log writing to w for requests slower
// than threshold, or nil when threshold <= 0 (disabled).
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	if threshold <= 0 || w == nil {
		return nil
	}
	return &SlowLog{w: w, threshold: threshold}
}

// Enabled reports whether requests should carry a trace for the slow
// log's benefit.
func (l *SlowLog) Enabled() bool { return l != nil }

// SlowEntry is the slow-query log's line schema.
type SlowEntry struct {
	// Time is the entry's wall-clock timestamp, RFC3339 with millis.
	Time string `json:"time"`
	// Query is the request's source text.
	Query string `json:"query"`
	// CacheKey is the plan-cache key: the query's template, constants
	// rendered as typed holes, so every query of one shape logs the same
	// key. It joins the log to /v1/explain output and cache metrics.
	CacheKey string `json:"cache_key,omitempty"`
	// Bound is the plan's static access bound (fetch ceiling), when
	// the request ran via a bounded plan.
	Bound int64 `json:"bound,omitempty"`
	// Mode is how the request was served: plan, scan, or envelope.
	Mode string `json:"mode,omitempty"`
	// ElapsedMS is the request wall-clock in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Fetched/Scanned/FetchKeys mirror Result.Stats.
	Fetched   int64 `json:"fetched"`
	Scanned   int64 `json:"scanned,omitempty"`
	FetchKeys int64 `json:"fetch_keys,omitempty"`
	CacheHit  bool  `json:"cache_hit,omitempty"`
	// TopSpans are the request's three longest phases, longest first.
	TopSpans []SlowSpan `json:"top_spans,omitempty"`
}

// SlowSpan is a span digest: just enough to name the phase and its
// cost.
type SlowSpan struct {
	Name      string  `json:"name"`
	Detail    string  `json:"detail,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Rows      int64   `json:"rows,omitempty"`
}

// Record emits the entry if elapsed crosses the threshold. root may be
// nil (no trace was attached); the entry then has no span digest.
func (l *SlowLog) Record(entry SlowEntry, elapsed time.Duration, root *Span) {
	if l == nil || elapsed < l.threshold {
		return
	}
	entry.Time = time.Now().UTC().Format("2006-01-02T15:04:05.000Z07:00")
	entry.ElapsedMS = float64(elapsed.Nanoseconds()) / 1e6
	for _, s := range TopSpans(root, 3) {
		entry.TopSpans = append(entry.TopSpans, SlowSpan{
			Name:      s.Name,
			Detail:    s.Detail,
			ElapsedMS: float64(s.ElapsedNS) / 1e6,
			Rows:      s.Rows,
		})
	}
	line, err := json.Marshal(entry)
	if err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Write(append(line, '\n'))
}
