package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/shard"
	"repro/internal/workload"
)

// accidentsServer builds a Server over the accidents demo workload with
// K shards (1 = single-node core.Engine), mirroring cmd/beserve's
// catalog.
func accidentsServer(t testing.TB, days, shards int, opts Options) (*Server, core.Queryable) {
	t.Helper()
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: days, AccidentsPerDay: 40, MaxVehicles: 6, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var eng core.Queryable
	if shards > 1 {
		eng, err = shard.New(acc.Schema, acc.Access, shard.Options{Shards: shards})
	} else {
		eng, err = core.New(acc.Schema, acc.Access, core.Options{})
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(acc.Instance); err != nil {
		t.Fatal(err)
	}
	q51, ps := workload.Q51()
	srv, err := New(eng, Catalog{
		Schema:  acc.Schema,
		Access:  acc.Access,
		Queries: map[string]*cq.CQ{"Q0": workload.Q0(), "Q51": q51},
		Params:  map[string][]string{"Q51": ps},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv, eng
}

// postQuery POSTs a /v1/query body and returns the response.
func postQuery(t testing.TB, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readAll drains and closes the body.
func readAll(t testing.TB, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// wireError is the client-side decode of the {"error": ...} envelope
// (access.Violation only marshals, so the wire shape is re-declared).
type wireError struct {
	Code       string `json:"code"`
	Message    string `json:"message"`
	Query      string `json:"query"`
	Budget     *int64 `json:"budget"`
	Bound      *int64 `json:"bound"`
	Violations []struct {
		Constraint string `json:"constraint"`
		Group      int    `json:"group"`
		Bound      int    `json:"bound"`
	} `json:"violations"`
}

// decodeAPIError decodes the {"error": ...} envelope.
func decodeAPIError(t testing.TB, body string) wireError {
	t.Helper()
	var env struct {
		Error wireError `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("error payload is not the envelope: %v\n%s", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("error payload lacks code/message:\n%s", body)
	}
	return env.Error
}

func TestQueryEndpointNamedAndText(t *testing.T) {
	srv, _ := accidentsServer(t, 2, 1, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postQuery(t, ts, `{"query":"Q0"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("named query status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", got)
	}
	if got := resp.Header.Get("X-Beserve-Mode"); got != "bounded plan" {
		t.Errorf("X-Beserve-Mode = %q", got)
	}
	body := readAll(t, resp)
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatalf("no NDJSON rows:\n%s", body)
	}
	for _, line := range lines {
		var row map[string]any
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line %q is not JSON: %v", line, err)
		}
		if _, ok := row["xa"]; !ok {
			t.Fatalf("row %q lacks the xa column", line)
		}
	}
	// Trailers carry the final stats; the error trailer is empty for a
	// complete stream.
	if got := resp.Trailer.Get("X-Beserve-Error"); got != "" {
		t.Errorf("complete stream has error trailer %q", got)
	}
	if got := resp.Trailer.Get("X-Beserve-Fetched"); got == "" || got == "0" {
		t.Errorf("X-Beserve-Fetched trailer = %q, want > 0", got)
	}

	// The same query as ad-hoc text answers identically.
	text := `{"text":"query Q0(xa) :- Accident(aid, \"Queen's Park\", \"1/5/2005\"), Casualty(cid, aid, class, vid), Vehicle(vid, dri, xa)."}`
	resp = postQuery(t, ts, text)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text query status = %d: %s", resp.StatusCode, readAll(t, resp))
	}
	if got := readAll(t, resp); got != body {
		t.Errorf("text query answered differently:\n--- named ---\n%s--- text ---\n%s", body, got)
	}
}

// TestCheckpointNotDurable pins POST /v1/checkpoint on engines that
// persist nothing: the in-memory core.Engine has no checkpoint surface at
// all, and a fleet started without a data directory has one whose
// partitions hold no store. Both answer 409 not_durable, never a 500.
func TestCheckpointNotDurable(t *testing.T) {
	for _, shards := range []int{1, 2} {
		srv, _ := accidentsServer(t, 1, shards, Options{})
		ts := httptest.NewServer(srv)
		resp, err := ts.Client().Post(ts.URL+"/v1/checkpoint", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		ts.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("shards=%d: checkpoint status %d, want 409:\n%s", shards, resp.StatusCode, body)
		}
		if e := decodeAPIError(t, body); e.Code != "not_durable" {
			t.Fatalf("shards=%d: checkpoint error code %q, want not_durable", shards, e.Code)
		}
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	srv, _ := accidentsServer(t, 1, 1, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, tc := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"malformed JSON", `{nope`, 400, "bad_request"},
		{"neither query nor text", `{}`, 400, "bad_request"},
		{"both query and text", `{"query":"Q0","text":"query Z(x) :- Vehicle(x, d, a)."}`, 400, "bad_request"},
		{"unknown query", `{"query":"Ghost"}`, 404, "unknown_query"},
		{"unknown field", `{"query":"Q0","bogus":1}`, 400, "bad_request"},
		{"trailing data", `{"query":"Q0"} {"query":"Q0"}`, 400, "bad_request"},
		{"bad query text", `{"text":"query Z(x) :- Nope(x)."}`, 400, "bad_query_text"},
		{"two heads in text", `{"text":"query A(x) :- Vehicle(x, d, a). query B(x) :- Vehicle(x, d, a)."}`, 400, "bad_query_text"},
		{"negative budget", `{"query":"Q0","budget":-1}`, 400, "bad_request"},
		{"bad timeout", `{"query":"Q0","timeout":"soon"}`, 400, "bad_request"},
		{"negative timeout", `{"query":"Q0","timeout":"-2s"}`, 400, "bad_request"},
		{"bad fallback", `{"query":"Q0","fallback":"maybe"}`, 400, "bad_request"},
		{"removed workers knob", `{"query":"Q0","workers":2}`, 400, "bad_request"},
		{"budget refusal", `{"query":"Q0","budget":0}`, 422, "budget_refused"},
		{"not bounded refusal", `{"text":"query Z(d) :- Accident(a, d, dt).","fallback":"refuse"}`, 422, "not_bounded"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postQuery(t, ts, tc.body)
			body := readAll(t, resp)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d\n%s", resp.StatusCode, tc.status, body)
			}
			if e := decodeAPIError(t, body); e.Code != tc.code {
				t.Errorf("code = %q, want %q", e.Code, tc.code)
			}
		})
	}
}

func TestBudgetRefusalDetails(t *testing.T) {
	srv, _ := accidentsServer(t, 1, 1, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp := postQuery(t, ts, `{"query":"Q0","budget":7}`)
	e := decodeAPIError(t, readAll(t, resp))
	if resp.StatusCode != 422 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if e.Query != "Q0" || e.Budget == nil || *e.Budget != 7 || e.Bound == nil || *e.Bound <= 7 {
		t.Errorf("refusal payload lacks budget/bound detail: %+v", e)
	}
}

func TestApplyEndpoint(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, eng := accidentsServer(t, 2, shards, Options{})
			ts := httptest.NewServer(srv)
			defer ts.Close()
			before := eng.Stats().Size

			// A fresh accident with one casualty/vehicle inserts cleanly.
			delta := "+\tAccident\t900001\tQueen's Park\t1/5/2005\n" +
				"+\tCasualty\t900001\t900001\t1\t900001\n" +
				"+\tVehicle\t900001\tzed\t2001\n"
			resp, err := ts.Client().Post(ts.URL+"/v1/apply", "text/tab-separated-values", strings.NewReader(delta))
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("apply status = %d\n%s", resp.StatusCode, body)
			}
			var res struct{ Inserted, Deleted, Size int }
			if err := json.Unmarshal([]byte(body), &res); err != nil {
				t.Fatal(err)
			}
			if res.Inserted != 3 || res.Deleted != 0 || res.Size != before+3 {
				t.Errorf("apply result = %+v, want +3 -0 size %d", res, before+3)
			}

			// The delta is immediately visible to queries.
			qresp := postQuery(t, ts, `{"query":"Q0"}`)
			if got := readAll(t, qresp); !strings.Contains(got, "2001") {
				t.Errorf("delta-inserted driver age missing from answers:\n%s", got)
			}

			// A batch violating ψ3 (second district for aid 1) is a 409
			// carrying the violation, with no visible effect.
			resp, err = ts.Client().Post(ts.URL+"/v1/apply", "text/tab-separated-values",
				strings.NewReader("+\tAccident\t1\tSoho\t9/9/1999\n"))
			if err != nil {
				t.Fatal(err)
			}
			body = readAll(t, resp)
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("violating apply status = %d\n%s", resp.StatusCode, body)
			}
			e := decodeAPIError(t, body)
			if e.Code != "schema_violation" || len(e.Violations) == 0 {
				t.Errorf("409 payload lacks violations: %+v", e)
			}
			if got := eng.Stats().Size; got != before+3 {
				t.Errorf("rejected delta changed |D|: %d -> %d", before+3, got)
			}

			// A malformed TSV line is a 400.
			resp, err = ts.Client().Post(ts.URL+"/v1/apply", "text/tab-separated-values",
				strings.NewReader("*\tAccident\t1\n"))
			if err != nil {
				t.Fatal(err)
			}
			body = readAll(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("malformed delta status = %d\n%s", resp.StatusCode, body)
			}
			if e := decodeAPIError(t, body); e.Code != "bad_delta" {
				t.Errorf("code = %q, want bad_delta", e.Code)
			}
		})
	}
}

func TestExplainSchemaHealthzMetrics(t *testing.T) {
	srv, _ := accidentsServer(t, 1, 1, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/explain?query=Q0")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != 200 || !strings.Contains(body, "BEP verdict: bounded") {
		t.Errorf("explain status=%d body:\n%s", resp.StatusCode, body)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/explain?query=Ghost")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != 404 {
		t.Errorf("explain unknown query status=%d body:\n%s", resp.StatusCode, body)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	var sch struct {
		Relations []struct {
			Name  string
			Attrs []string
		}
		Constraints []string
		Queries     []struct{ Name string }
		Shards      int
		Size        int
	}
	if err := json.Unmarshal([]byte(readAll(t, resp)), &sch); err != nil {
		t.Fatal(err)
	}
	if len(sch.Relations) != 3 || len(sch.Constraints) != 4 || sch.Shards != 1 || sch.Size == 0 {
		t.Errorf("schema = %+v", sch)
	}
	if len(sch.Queries) != 2 || sch.Queries[0].Name != "Q0" || sch.Queries[1].Name != "Q51" {
		t.Errorf("queries not sorted/complete: %+v", sch.Queries)
	}
	if !strings.Contains(strings.Join(sch.Constraints, "\n"), "Accident(date -> aid, 610)") {
		t.Errorf("constraint rendering lost the arrow: %v", sch.Constraints)
	}

	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != 200 || !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("healthz status=%d body:\n%s", resp.StatusCode, body)
	}

	// One query, then metrics must reflect it.
	readAll(t, postQuery(t, ts, `{"query":"Q0"}`))
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	for _, want := range []string{
		`beserve_requests_total{endpoint="query"} 1`,
		"beserve_in_flight 0",
		"beserve_engine_queries_total",
		"beserve_engine_fetched_total",
		"beserve_plan_cache_hit_rate",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics lack %q:\n%s", want, body)
		}
	}
	// The engine-side fetched counter moved.
	if strings.Contains(body, "beserve_engine_fetched_total 0\n") {
		t.Errorf("engine fetched counter did not move:\n%s", body)
	}
}

// TestQueryDeadline404Before(...) pins the pre-stream deadline path: a
// deadline that expires before planning is a structured 504, not a cut
// stream.
func TestQueryDeadlineBeforeExecution(t *testing.T) {
	srv, _ := accidentsServer(t, 1, 1, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp := postQuery(t, ts, `{"query":"Q0","timeout":"1ns"}`)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d\n%s", resp.StatusCode, body)
	}
	if e := decodeAPIError(t, body); e.Code != "deadline_exceeded" {
		t.Errorf("code = %q", e.Code)
	}
}

// metricValue scrapes one gauge/counter from /metrics.
func metricValue(t testing.TB, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(readAll(t, resp), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v int64
			if _, err := fmt.Sscanf(line, name+" %d", &v); err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// gatedEngine wraps a Queryable so Query blocks until the gate closes —
// a deterministic way to hold an admission slot open.
type gatedEngine struct {
	core.Queryable
	gate chan struct{}
}

func (g *gatedEngine) Query(ctx context.Context, q core.Query, opts ...core.QueryOption) (*core.Result, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Queryable.Query(ctx, q, opts...)
}

// TestAdmissionSaturation pins the backpressure contract: with the one
// admission slot held by an in-flight request, the next request waits
// out the queue timeout and is refused 503 with Retry-After; once the
// slot frees, requests are admitted again.
func TestAdmissionSaturation(t *testing.T) {
	_, inner := accidentsServer(t, 1, 1, Options{})
	gated := &gatedEngine{Queryable: inner, gate: make(chan struct{})}
	srv, err := New(gated, Catalog{
		Schema:  workload.AccidentSchema(),
		Access:  workload.AccidentConstraints(),
		Queries: map[string]*cq.CQ{"Q0": workload.Q0()},
	}, Options{MaxInFlight: 1, QueueTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	holderDone := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json",
			strings.NewReader(`{"query":"Q0"}`))
		if err != nil {
			holderDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		holderDone <- resp.StatusCode
	}()
	// The holder owns the slot once it is blocked inside the engine.
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, ts, "beserve_in_flight") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("holder never acquired the slot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	resp := postQuery(t, ts, `{"query":"Q0"}`)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated status = %d\n%s", resp.StatusCode, body)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Errorf("refused after %v, before the queue timeout", waited)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 lacks Retry-After")
	}
	if e := decodeAPIError(t, body); e.Code != "saturated" {
		t.Errorf("code = %q", e.Code)
	}
	if got := metricValue(t, ts, "beserve_saturated_total"); got != 1 {
		t.Errorf("saturated_total = %d", got)
	}

	// Opening the gate frees the slot: the holder completes and the next
	// request is admitted.
	close(gated.gate)
	if got := <-holderDone; got != 200 {
		t.Fatalf("holder finished with status %d", got)
	}
	resp = postQuery(t, ts, `{"query":"Q0"}`)
	readAll(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("post-drain status = %d", resp.StatusCode)
	}
}

// TestClientDisconnectCancelsRequest pins request-scoped cancellation:
// closing the response body mid-stream cancels the server-side request
// context, the handler unwinds (in_flight back to 0), and the cut is
// counted.
func TestClientDisconnectCancelsRequest(t *testing.T) {
	soc, err := workload.GenerateSocial(workload.SocialConfig{People: 2000, MaxFriends: 50, MaxLikes: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(soc.Schema, soc.Access, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(soc.Instance); err != nil {
		t.Fatal(err)
	}
	queries := map[string]*cq.CQ{}
	for _, q := range workload.PatternQueries(1) {
		queries[q.Label] = q
	}
	srv, err := New(eng, Catalog{Schema: soc.Schema, Access: soc.Access, Queries: queries}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/query", strings.NewReader(`{"query":"allPairs"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a little of the stream, then vanish.
	if _, err := io.ReadFull(resp.Body, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, ts, "beserve_in_flight") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler did not unwind after client disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := metricValue(t, ts, "beserve_stream_cuts_total"); got != 1 {
		t.Errorf("stream_cuts_total = %d, want 1", got)
	}
}

// TestNotBoundedNamesItsOwnConstants pins the recompute half of the
// plan cache's template rule on the wire. Two non-covered ad-hoc texts
// that differ only in a constant share a template key, but a refusal's
// diagnostics were computed for one query's constants, so the cache
// serves the verdict to that query only: each 422 carries exactly the
// message a cache-less server gives for the same text, and the sibling
// re-plans (a miss) instead of being handed the other's refusal.
func TestNotBoundedNamesItsOwnConstants(t *testing.T) {
	srv, eng := accidentsServer(t, 1, 1, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: 1, AccidentsPerDay: 40, MaxVehicles: 6, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.New(acc.Schema, acc.Access, core.Options{PlanCache: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Load(acc.Instance); err != nil {
		t.Fatal(err)
	}
	coldSrv, err := New(cold, Catalog{Schema: acc.Schema, Access: acc.Access}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldTS := httptest.NewServer(coldSrv)
	defer coldTS.Close()

	refusal := func(ts *httptest.Server, district string) string {
		body := fmt.Sprintf(`{"text":"query Z(a) :- Accident(a, d, dt), Vehicle(v, n, x), d = \"%s\".","fallback":"refuse"}`, district)
		resp := postQuery(t, ts, body)
		got := readAll(t, resp)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status = %d, want 422\n%s", district, resp.StatusCode, got)
		}
		e := decodeAPIError(t, got)
		if e.Code != "not_bounded" || !strings.Contains(e.Message, "Accident(") || !strings.Contains(e.Message, "Vehicle(") {
			t.Fatalf("%s: the refusal must name the query's atoms: %+v", district, e)
		}
		return e.Message
	}
	base := eng.(*core.Engine).CacheStats()
	for _, district := range []string{"Soho", "Brixton", "Brixton"} {
		if got, want := refusal(ts, district), refusal(coldTS, district); got != want {
			t.Fatalf("%s: refusal\n%s\nwant the cache-less server's\n%s", district, got, want)
		}
	}
	// Soho misses; Brixton shares its template but not its constants, so
	// it re-plans and replaces the entry; Brixton again hits its own.
	if st := eng.(*core.Engine).CacheStats(); st.Misses != base.Misses+2 || st.Hits != base.Hits+1 {
		t.Fatalf("refusals must be served for their own constants only: %+v -> %+v", base, st)
	}
}
