package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/parser"
)

// QueryRequest is the POST /v1/query body. Exactly one of Query (a name
// from the catalog) and Text (ad-hoc query rules in the document
// syntax, validated against the server's schema) must be set; the
// remaining fields are the per-request serving knobs, each mapping onto
// one core.QueryOption.
type QueryRequest struct {
	// Query names a catalog query, e.g. "Q0".
	Query string `json:"query,omitempty"`
	// Text is one ad-hoc query: "query Q(x) :- R(x, y)." — several rules
	// sharing a head form a union.
	Text string `json:"text,omitempty"`
	// Budget, when non-nil, admits the request only if the static access
	// bound fits (core.WithAccessBudget); the refusal is a structured
	// 422 before any data is touched.
	Budget *int64 `json:"budget,omitempty"`
	// Timeout is a Go duration ("250ms", "2s") bounding request
	// wall-clock, including the streaming of the response.
	Timeout string `json:"timeout,omitempty"`
	// Fallback picks the strategy for non-bounded queries:
	// "scan" (default) | "refuse" | "envelope".
	Fallback string `json:"fallback,omitempty"`
	// Profile requests an EXPLAIN ANALYZE trailer: the response's last
	// NDJSON line is {"profile": <span tree>} with per-operator timings
	// and row counts for this request.
	Profile bool `json:"profile,omitempty"`
}

// decodeQueryRequest reads and decodes the JSON body. Every failure is
// a structured 4xx — this is the surface FuzzQueryRequest hammers.
func decodeQueryRequest(r *http.Request) (*QueryRequest, *apiError) {
	body := http.MaxBytesReader(nil, r.Body, DefaultMaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req QueryRequest
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, &apiError{Code: "body_too_large",
				Message: fmt.Sprintf("request body exceeds the %d-byte limit", DefaultMaxBodyBytes)}
		}
		return nil, &apiError{Code: "bad_request", Message: "malformed JSON request: " + err.Error()}
	}
	// A second JSON value after the request object is a client bug, not
	// trailing bytes to ignore.
	if dec.More() {
		return nil, &apiError{Code: "bad_request", Message: "trailing data after the JSON request object"}
	}
	return &req, nil
}

// resolve validates the decoded request against the catalog and schema,
// returning the query to serve, its options, and the request deadline
// (zero when none). Every failure is a structured 4xx.
func (s *Server) resolve(req *QueryRequest) (core.Query, []core.QueryOption, time.Time, *apiError) {
	var none time.Time
	if (req.Query == "") == (req.Text == "") {
		return nil, nil, none, &apiError{Code: "bad_request",
			Message: `exactly one of "query" (a catalog name) and "text" (an ad-hoc rule) must be set`}
	}
	var q core.Query
	switch {
	case req.Query != "":
		cq, ok := s.cat.Queries[req.Query]
		if !ok {
			return nil, nil, none, &apiError{Code: "unknown_query",
				Message: fmt.Sprintf("no query named %q; GET /v1/schema lists the catalog", req.Query)}
		}
		q = cq
	default:
		if len(req.Text) > maxQueryText {
			return nil, nil, none, &apiError{Code: "bad_query_text",
				Message: fmt.Sprintf("query text exceeds %d bytes", maxQueryText)}
		}
		parsed, err := parser.ParseQueryRules(req.Text, s.cat.Schema)
		if err != nil {
			return nil, nil, none, &apiError{Code: "bad_query_text", Message: err.Error()}
		}
		if len(parsed) != 1 {
			return nil, nil, none, &apiError{Code: "bad_query_text",
				Message: fmt.Sprintf("text must define exactly one query (rules sharing a head form a union), got %d", len(parsed))}
		}
		if parsed[0].IsCQ() {
			q = parsed[0].Subs[0]
		} else {
			q = parsed[0].PosFO
		}
	}
	var opts []core.QueryOption
	if req.Budget != nil {
		if *req.Budget < 0 {
			return nil, nil, none, &apiError{Code: "bad_request",
				Message: fmt.Sprintf("budget must be ≥ 0, got %d (omit it for no budget)", *req.Budget)}
		}
		opts = append(opts, core.WithAccessBudget(*req.Budget))
	}
	var deadline time.Time
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil {
			return nil, nil, none, &apiError{Code: "bad_request", Message: "bad timeout: " + err.Error()}
		}
		if d <= 0 {
			return nil, nil, none, &apiError{Code: "bad_request",
				Message: fmt.Sprintf("timeout must be positive, got %s (omit it for none)", d)}
		}
		deadline = time.Now().Add(d)
		opts = append(opts, core.WithDeadline(deadline))
	}
	switch req.Fallback {
	case "", "scan":
		opts = append(opts, core.WithFallback(core.FallbackScan))
	case "refuse":
		opts = append(opts, core.WithFallback(core.FallbackRefuse))
	case "envelope":
		opts = append(opts, core.WithFallback(core.FallbackEnvelope))
	default:
		return nil, nil, none, &apiError{Code: "bad_request",
			Message: fmt.Sprintf("unknown fallback %q (want scan | refuse | envelope)", req.Fallback)}
	}
	return q, opts, deadline, nil
}
