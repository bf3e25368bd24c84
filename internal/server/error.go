package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/live"
)

// apiError is the one structured error payload every endpoint speaks,
// wrapped as {"error": {...}} on the wire. Code is machine-matchable
// and stable; the optional fields carry the refusal's specifics (the
// budget/bound pair of an admission refusal, the violation list of a
// rejected delta).
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Query, Budget and Bound detail a budget refusal: the static access
	// bound (absent when the query has none — a scan) exceeded the
	// request's budget.
	Query  string `json:"query,omitempty"`
	Budget *int64 `json:"budget,omitempty"`
	Bound  *int64 `json:"bound,omitempty"`
	// Violations details a schema_violation rejection (409).
	Violations []access.Violation `json:"violations,omitempty"`
}

// status maps the error code to its HTTP status.
func (e apiError) status() int {
	switch e.Code {
	case "unknown_query":
		return http.StatusNotFound
	case "schema_violation":
		return http.StatusConflict
	case "budget_refused", "not_bounded":
		return http.StatusUnprocessableEntity
	case "body_too_large":
		return http.StatusRequestEntityTooLarge
	case "deadline_exceeded":
		return http.StatusGatewayTimeout
	case "client_closed_request":
		// nginx's 499: the client aborted; not a server fault.
		return 499
	case "saturated", "shard_unavailable":
		return http.StatusServiceUnavailable
	case "internal":
		return http.StatusInternalServerError
	default: // bad_request, bad_query_text, bad_delta
		return http.StatusBadRequest
	}
}

// queryError maps an Engine.Query (or Apply) error to its structured
// payload: refusals the engine negotiates (budget, not-bounded) keep
// their diagnostics; anything unrecognized is an internal error.
func queryError(err error) apiError {
	var be *core.BudgetError
	if errors.As(err, &be) {
		e := apiError{
			Code:    "budget_refused",
			Message: be.Error(),
			Query:   be.Query,
			Budget:  &be.Budget,
		}
		if be.Bound != nil {
			e.Bound = &be.Bound.Fetched
		}
		return e
	}
	var nb *core.NotBoundedError
	if errors.As(err, &nb) {
		return apiError{Code: "not_bounded", Message: nb.Error()}
	}
	var viol *live.ViolationError
	if errors.As(err, &viol) {
		return apiError{
			Code:       "schema_violation",
			Message:    live.RejectionMessage,
			Violations: viol.Violations,
		}
	}
	// Coded errors (internal/cluster's unavailable refusal, shard
	// protocol refusals, and any future engine that tags its errors)
	// carry their own stable code. Checked before the context
	// classification: an RPC that timed out inside the engine wraps
	// DeadlineExceeded, but the REQUEST's deadline did not expire — the
	// honest answer is the coded refusal.
	var coded interface{ ErrorCode() string }
	if errors.As(err, &coded) {
		return apiError{Code: coded.ErrorCode(), Message: err.Error()}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return apiError{Code: "deadline_exceeded", Message: err.Error()}
	}
	if errors.Is(err, context.Canceled) {
		// The client went away; this is not a server fault, and mostly
		// nobody is left to read it — but a fronting proxy's accounting
		// should not see a 5xx.
		return apiError{Code: "client_closed_request", Message: err.Error()}
	}
	return apiError{Code: "internal", Message: err.Error()}
}

// writeError writes the {"error": ...} envelope. Payloads are indented
// and key-stable, so they can be pinned by golden files.
func writeError(w http.ResponseWriter, status int, e apiError) {
	writeJSON(w, status, struct {
		Error apiError `json:"error"`
	}{e})
}

// writeJSON writes v indented with a trailing newline; HTML escaping is
// off so constraint arrows and query syntax survive verbatim.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Marshaling our own payload shapes cannot fail; guard anyway.
		http.Error(w, fmt.Sprintf(`{"error":{"code":"internal","message":%q}}`, err.Error()),
			http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}
