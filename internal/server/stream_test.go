package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/schema"
	"repro/internal/value"
)

// noteServer serves Z(n, s) :- Note(1, n, s) over rows Note tuples whose
// S cells are width bytes each, so the answer is rows lines of a little
// over width bytes.
func noteServer(t *testing.T, rows, width int, opts Options) *Server {
	t.Helper()
	s := schema.MustNew(schema.MustRelation("Note", "K", "N", "S"))
	a := access.NewSchema(access.NewConstraint("Note",
		[]schema.Attribute{"K"}, []schema.Attribute{"N", "S"}, rows))
	eng, err := core.New(s, a, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := data.NewInstance(s)
	cell := value.NewString(strings.Repeat("x", width))
	for i := 0; i < rows; i++ {
		d.MustInsert("Note", value.NewInt(1), value.NewInt(int64(i)), cell)
	}
	if err := eng.Load(d); err != nil {
		t.Fatal(err)
	}
	z := &cq.CQ{
		Label: "Z", Free: []string{"n", "s"},
		Atoms: []cq.Atom{cq.NewAtom("Note", cq.Const(value.NewInt(1)), cq.Var("n"), cq.Var("s"))},
	}
	srv, err := New(eng, Catalog{Schema: s, Access: a, Queries: map[string]*cq.CQ{"Z": z}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestStalledReaderIsCut pins the stall guard: a client that posts a
// query whose answer outgrows loopback's socket buffers and then never
// reads must not pin its admission slot. Within a bound after
// StallTimeout the blocked write fails, the handler returns, the cut is
// counted, and the one slot admits the next request.
func TestStalledReaderIsCut(t *testing.T) {
	const (
		stall = 200 * time.Millisecond
		// bound covers StallTimeout plus producing and writing the
		// answer up to the point the socket fills, under -race.
		bound = 10 * time.Second
	)
	// 4 000 rows of 4 KiB: a 16 MB answer, four times the largest
	// default loopback send buffer.
	srv := noteServer(t, 4000, 4096, Options{StallTimeout: stall, MaxInFlight: 1, QueueTimeout: time.Second})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A small receive window keeps the client's side from absorbing
	// the answer.
	if err := conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	body := `{"query":"Z"}`
	if _, err := fmt.Fprintf(conn, "POST /v1/query HTTP/1.1\r\nHost: beserve\r\n"+
		"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(stall + bound)
	for srv.metrics.streamCuts.Load() == 0 || srv.metrics.inFlight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("after %v: stream_cuts_total = %d, in_flight = %d; the stalled stream was never cut",
				stall+bound, srv.metrics.streamCuts.Load(), srv.metrics.inFlight.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := metricValue(t, ts, "beserve_stream_cuts_total"); got != 1 {
		t.Errorf("stream_cuts_total = %d, want 1", got)
	}
	resp := postQuery(t, ts, body)
	out := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the cut: status %d", resp.StatusCode)
	}
	if n := strings.Count(out, "\n"); n != 4000 {
		t.Errorf("request after the cut streamed %d rows, want 4000", n)
	}
	if e := resp.Trailer.Get("X-Beserve-Error"); e != "" {
		t.Errorf("request after the cut has error trailer %q", e)
	}
}

// writeRecorder is a ResponseWriter that records the length of every
// Write and counts Flush calls, so a test sees the writes the handler
// hands its connection. It supports no deadlines, so the stall guard
// runs unarmed.
type writeRecorder struct {
	header  http.Header
	body    bytes.Buffer
	writes  []int
	flushes int
}

func (r *writeRecorder) Header() http.Header  { return r.header }
func (r *writeRecorder) WriteHeader(code int) {}
func (r *writeRecorder) Flush()               { r.flushes++ }

func (r *writeRecorder) Write(p []byte) (int, error) {
	r.writes = append(r.writes, len(p))
	return r.body.Write(p)
}

// TestStreamWritesWholeChunksAndCountsRows pins the write and counting
// contract of /v1/query over an answer that crosses several chunk
// boundaries: nothing is flushed, the rows reach the ResponseWriter in
// writes of exactly chunkSize bytes but the last, the rows-streamed
// counter and histogram count answer rows exactly, and a profile line
// comes after every row, in one write of its own, without being counted
// as one.
func TestStreamWritesWholeChunksAndCountsRows(t *testing.T) {
	const rows = 1000
	srv := noteServer(t, rows, 100, Options{})
	for _, profile := range []bool{false, true} {
		t.Run(fmt.Sprintf("profile=%v", profile), func(t *testing.T) {
			before, beforeHist := srv.metrics.rows.Load(), srv.metrics.rowsOut.Sum()
			rec := &writeRecorder{header: http.Header{}}
			body := fmt.Sprintf(`{"query":"Z","profile":%v}`, profile)
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
			out := rec.body.String()
			if out == "" || rec.header.Get("X-Beserve-Error") != "" {
				t.Fatalf("stream failed: error trailer %q, body %q", rec.header.Get("X-Beserve-Error"), out)
			}
			if len(out) < 3*chunkSize {
				t.Fatalf("answer is %d bytes, want several %d-byte chunks", len(out), chunkSize)
			}
			if rec.flushes != 0 {
				t.Errorf("%d flushes, want none", rec.flushes)
			}

			rowBytes := len(out)
			writes := rec.writes
			if profile {
				last := out[strings.LastIndexByte(out[:len(out)-1], '\n')+1:]
				rowBytes -= len(last)
				if n := len(writes); n == 0 || writes[n-1] != len(last) {
					t.Fatalf("writes %v: the %d-byte profile line is not the last write", writes, len(last))
				}
				writes = writes[:len(writes)-1]
			}
			if want := (rowBytes + chunkSize - 1) / chunkSize; len(writes) != want {
				t.Fatalf("%d row writes for %d bytes, want %d", len(writes), rowBytes, want)
			}
			for i, n := range writes[:len(writes)-1] {
				if n != chunkSize {
					t.Errorf("row write %d is %d bytes, want %d", i, n, chunkSize)
				}
			}

			lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
			wantLines := rows
			if profile {
				wantLines++
			}
			if len(lines) != wantLines {
				t.Fatalf("%d lines, want %d", len(lines), wantLines)
			}
			seen := map[int64]bool{}
			for i, line := range lines[:rows] {
				var row struct {
					N *int64 `json:"n"`
				}
				if err := json.Unmarshal([]byte(line), &row); err != nil || row.N == nil {
					t.Fatalf("line %d = %.60q is not an answer row", i, line)
				}
				seen[*row.N] = true
			}
			if len(seen) != rows {
				t.Errorf("%d distinct rows, want %d", len(seen), rows)
			}
			if profile {
				var p struct {
					Profile json.RawMessage `json:"profile"`
				}
				if err := json.Unmarshal([]byte(lines[rows]), &p); err != nil || p.Profile == nil {
					t.Errorf("last line is not the profile: %.80q", lines[rows])
				}
			}

			if got := srv.metrics.rows.Load() - before; got != rows {
				t.Errorf("beserve_rows_streamed_total rose by %d, want %d", got, rows)
			}
			if got := srv.metrics.rowsOut.Sum() - beforeHist; got != rows {
				t.Errorf("beserve_query_rows_streamed observed %v rows, want %d", got, rows)
			}
		})
	}
	if got := srv.metrics.rowsOut.Count(); got != 2 {
		t.Errorf("beserve_query_rows_streamed_count = %d, want 2", got)
	}
}

// countingListener hands out connections that count their Write calls:
// each call is one write to the socket.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, writes: &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestAnswerSocketWrites pins how many socket writes an answer costs,
// from the status line to the trailers: a bounded plan has done all of
// its data access before its first row exists, so nothing is gained by
// sending rows ahead of the chunk they fill, and an answer leaves in
// the writes its bytes need.
func TestAnswerSocketWrites(t *testing.T) {
	acc, _ := accidentsServer(t, 2, 1, Options{})
	for _, tc := range []struct {
		name   string
		srv    *Server
		body   string
		status int
		// max is the ceiling on socket writes; exact makes it the count.
		max   int64
		exact bool
	}{
		{"Q0", acc, `{"query":"Q0"}`, http.StatusOK, 1, true},
		{"budget_refused", acc, `{"query":"Q0","budget":0}`, http.StatusUnprocessableEntity, 1, true},
		{"Q0 profiled", acc, `{"query":"Q0","profile":true}`, http.StatusOK, 2, false},
		{"700 rows of 10 bytes", noteServer(t, 700, 10, Options{}), `{"query":"Z"}`, http.StatusOK, 3, false},
		{"1000 rows of 100 bytes", noteServer(t, 1000, 100, Options{}), `{"query":"Z"}`, http.StatusOK, 9, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewUnstartedServer(tc.srv)
			ln := &countingListener{Listener: ts.Listener}
			ts.Listener = ln
			ts.Start()
			defer ts.Close()
			resp := postQuery(t, ts, tc.body)
			body := readAll(t, resp)
			if e := resp.Trailer.Get("X-Beserve-Error"); resp.StatusCode != tc.status || body == "" || e != "" {
				t.Fatalf("status %d (want %d), error trailer %q, body %.80q", resp.StatusCode, tc.status, e, body)
			}
			got := ln.writes.Load()
			if tc.exact && got != tc.max {
				t.Errorf("%d socket writes for a %d-byte answer, want %d", got, len(body), tc.max)
			} else if got > tc.max {
				t.Errorf("%d socket writes for a %d-byte answer, want at most %d", got, len(body), tc.max)
			}
		})
	}
}
