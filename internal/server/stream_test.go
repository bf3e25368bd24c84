package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
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

// flushRecorder is a ResponseWriter that snapshots the body at every
// Flush, so a test sees what a streaming client could have read at each
// point. It supports no deadlines, so the stall guard runs unarmed.
type flushRecorder struct {
	header  http.Header
	body    bytes.Buffer
	flushes []string
}

func (r *flushRecorder) Header() http.Header  { return r.header }
func (r *flushRecorder) WriteHeader(code int) {}
func (r *flushRecorder) Flush()               { r.flushes = append(r.flushes, r.body.String()) }

func (r *flushRecorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// TestStreamFlushesAndCountsRows pins the flush and counting contract of
// /v1/query over an answer that crosses several chunk boundaries and
// flushStride: the first flush carries exactly the first row, every
// flush falls on a line boundary (one row, then flushStride more each
// time), the rows-streamed counter and histogram count answer rows
// exactly, and a profile line comes after every row without being
// counted as one.
func TestStreamFlushesAndCountsRows(t *testing.T) {
	const rows = 1000
	srv := noteServer(t, rows, 100, Options{})
	for _, profile := range []bool{false, true} {
		t.Run(fmt.Sprintf("profile=%v", profile), func(t *testing.T) {
			before, beforeHist := srv.metrics.rows.Load(), srv.metrics.rowsOut.Sum()
			rec := &flushRecorder{header: http.Header{}}
			body := fmt.Sprintf(`{"query":"Z","profile":%v}`, profile)
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
			out := rec.body.String()
			if out == "" || rec.header.Get("X-Beserve-Error") != "" {
				t.Fatalf("stream failed: error trailer %q, body %q", rec.header.Get("X-Beserve-Error"), out)
			}
			if len(out) < 3*chunkSize {
				t.Fatalf("answer is %d bytes, want several %d-byte chunks", len(out), chunkSize)
			}

			rowFlushes := (rows + flushStride - 1) / flushStride
			wantFlushes := rowFlushes
			if profile {
				wantFlushes++
			}
			if len(rec.flushes) != wantFlushes {
				t.Fatalf("%d flushes, want %d", len(rec.flushes), wantFlushes)
			}
			for i, snap := range rec.flushes[:rowFlushes] {
				if want := 1 + i*flushStride; strings.Count(snap, "\n") != want || !strings.HasSuffix(snap, "\n") {
					t.Errorf("flush %d holds %d newlines (ends on a line: %v), want %d complete lines",
						i, strings.Count(snap, "\n"), strings.HasSuffix(snap, "\n"), want)
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
				if rec.flushes[rowFlushes] != out {
					t.Error("the profile line is not flushed")
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
