// Package ndjson renders engine results as newline-delimited JSON — one
// row object per line, columns in plan order. It is the ONE row encoder
// shared by cmd/bequery's -stream mode and internal/server's /v1/query
// response, which is what makes the network wire format byte-identical
// to the CLI's golden files (pinned by internal/server's e2e suite).
//
// A row is encoded by appending into one buffer reused from row to row:
// int cells with strconv, HTML-safe ASCII strings copied between quotes,
// and every other string through encoding/json, so the bytes are
// encoding/json's (pinned by FuzzAppendString) at the cost of the row's
// bytes rather than an allocation per cell.
package ndjson

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/value"
)

// lineCap is the line buffer's starting capacity: rows up to this many
// bytes never regrow it.
const lineCap = 512

// Write drains res's row iterator into w, one JSON object per line and
// one w.Write per line. Rows are emitted as the engine produces them
// (for a streamed result nothing is materialized); the `"name":` prefix
// of each column is encoded once per call, and every line is appended
// into the same buffer, so the cost of a row is the cost of its bytes.
// After the iterator stops, Write returns the result's deferred
// execution error, so a stream cut short by a deadline or disconnect
// surfaces to the caller instead of reading as a complete answer.
//
// flush, when non-nil, runs after every line. Every product caller
// passes nil — the server hands w's bytes to the connection a chunk at
// a time — and the argument stays only for the benchmark's callers.
func Write(w io.Writer, res *core.Result, flush func()) error {
	names := make([][]byte, 0, len(res.Columns))
	line := make([]byte, 0, lineCap)
	for row := range res.Seq() {
		for j := len(names); j < len(row); j++ {
			var col string
			if j < len(res.Columns) {
				col = res.Columns[j]
			} else {
				col = "col" + strconv.Itoa(j)
			}
			name := appendString(make([]byte, 0, len(col)+len(`"":`)), col)
			names = append(names, append(name, ':'))
		}
		line = append(line[:0], '{')
		for j, v := range row {
			if j > 0 {
				line = append(line, ',')
			}
			line = append(line, names[j]...)
			line = appendValue(line, v)
		}
		line = append(line, '}', '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
		if flush != nil {
			flush()
		}
	}
	return res.Err()
}

// appendValue appends v in its natural JSON type: an int cell as a
// number, any other cell as the string v.Str().
func appendValue(dst []byte, v value.Value) []byte {
	if v.Kind() == value.Int {
		return strconv.AppendInt(dst, v.Int(), 10)
	}
	return appendString(dst, v.Str())
}

// appendString appends s as json.Marshal(s) renders it. A string whose
// every byte is in encoding/json's HTML-safe ASCII set needs no escape
// and is copied between quotes; any other string (quotes, backslashes,
// <, >, &, control bytes, non-ASCII, invalid UTF-8) is marshaled by
// encoding/json itself, so its escapes cannot drift from the standard
// library's.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // a string always marshals
			return append(dst, enc...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// WriteProfile emits the EXPLAIN ANALYZE trailer: one NDJSON line whose
// single "profile" key holds the request's finished span tree. It goes
// after the row lines (and, over HTTP, before the trailers), so a plain
// row consumer distinguishes it by the key — no row object ever has a
// "profile" column because column names come from query variables.
// Shared by bequery -profile and the server's "profile": true so the
// wire output stays byte-identical to the CLI.
func WriteProfile(w io.Writer, root *obs.Span) error {
	if root == nil {
		return nil
	}
	enc, err := json.Marshal(struct {
		Profile *obs.Span `json:"profile"`
	}{root})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(enc))
	return err
}
