package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/cluster"
	"repro/internal/cq"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/schema"
	"repro/internal/workload"
)

// clusterCoordinator builds a loaded scatter-gather coordinator over k
// networked shard nodes (each behind its own httptest server serving
// the framed partition wire), mirroring a real multi-process deployment in one
// test process.
func clusterCoordinator(t testing.TB, s *schema.Schema, a *access.Schema, k int) *cluster.Engine {
	t.Helper()
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		node, err := cluster.NewNode(s, a, i, k, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(node.InternalHandler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	coord, err := cluster.New(s, a, urls, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// accidentsClusterServer reproduces cmd/bequery's golden fixture bed —
// the accidents.bq document plus the deterministic generated instance —
// and serves it through a coordinator over k networked shard nodes.
func accidentsClusterServer(t *testing.T, k int) *httptest.Server {
	t.Helper()
	raw, err := os.ReadFile(bequeryTestdata("accidents.bq"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := parser.Parse(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: 3, AccidentsPerDay: 25, MaxVehicles: 3, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := load.SaveInstance(acc.Instance, dir); err != nil {
		t.Fatal(err)
	}
	d, err := load.LoadInstance(doc.Schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	coord := clusterCoordinator(t, doc.Schema, doc.Access, k)
	if err := coord.Load(d); err != nil {
		t.Fatal(err)
	}
	srv, err := New(coord, CatalogFromDocument(doc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// TestE2EClusterWireMatchesCLIGolden is the distributed acceptance
// check: the NDJSON body a COORDINATOR streams over HTTP — every fetch
// an RPC to a networked shard node — is byte-identical to the golden
// file cmd/bequery's -stream mode records for the same query on the
// same data, for 1 and 4 peers.
func TestE2EClusterWireMatchesCLIGolden(t *testing.T) {
	golden, err := os.ReadFile(bequeryTestdata("golden", "run_stream.golden"))
	if err != nil {
		t.Fatalf("missing CLI golden file (record with go test ./cmd/bequery -run Golden -update): %v", err)
	}
	for _, k := range []int{1, 4} {
		ts := accidentsClusterServer(t, k)
		resp := postQuery(t, ts, `{"query":"Q0"}`)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("K=%d: status = %d\n%s", k, resp.StatusCode, body)
		}
		if body != string(golden) {
			t.Errorf("K=%d: coordinator wire output differs from the CLI golden file:\n--- golden ---\n%s--- wire ---\n%s",
				k, golden, body)
		}
		if got := resp.Trailer.Get("X-Beserve-Error"); got != "" {
			t.Errorf("K=%d: X-Beserve-Error trailer = %q, want empty", k, got)
		}
	}
}

// TestClusterQueryProfileTrailer extends the profile-trailer
// reconciliation to the cluster path: with "profile": true against a
// coordinator-backed server, the last NDJSON line's span tree must name
// the plan and fetch phases plus the synthesized "peer N" RPC spans (and
// no in-process "shard N" spans), the plan-step fetch spans must sum to
// exactly the X-Beserve-Fetched trailer, and the pre-merge peer RPC
// traffic must cover it.
func TestClusterQueryProfileTrailer(t *testing.T) {
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: 2, AccidentsPerDay: 40, MaxVehicles: 6, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord := clusterCoordinator(t, acc.Schema, acc.Access, 4)
	if err := coord.Load(acc.Instance); err != nil {
		t.Fatal(err)
	}
	srv, err := New(coord, Catalog{
		Schema:  acc.Schema,
		Access:  acc.Access,
		Queries: map[string]*cq.CQ{"Q0": workload.Q0()},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postQuery(t, ts, `{"query":"Q0","profile":true}`)
	body := readAll(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d\n%s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	last := lines[len(lines)-1]
	var trailer struct {
		Profile *obs.Span `json:"profile"`
	}
	if err := json.Unmarshal([]byte(last), &trailer); err != nil || trailer.Profile == nil {
		t.Fatalf("last line is not a profile trailer: %v\n%s", err, last)
	}
	if trailer.Profile.Name != "query" || trailer.Profile.ElapsedNS <= 0 {
		t.Errorf("root span = %+v", trailer.Profile)
	}
	for _, want := range []string{`"name":"plan"`, `"name":"fetch"`, `"name":"peer `} {
		if !strings.Contains(last, want) {
			t.Errorf("cluster profile lacks %s:\n%s", want, last)
		}
	}
	if strings.Contains(last, `"name":"shard `) {
		t.Errorf("cluster profile carries in-process shard spans:\n%s", last)
	}

	// Reconciliation: the trailer's fetched count (Result.Stats on the
	// wire) equals the sum of plan-step fetch spans, and the per-peer RPC
	// spans' pre-merge traffic covers it.
	fetched, err := strconv.ParseInt(resp.Trailer.Get("X-Beserve-Fetched"), 10, 64)
	if err != nil || fetched <= 0 {
		t.Fatalf("X-Beserve-Fetched trailer = %q (err %v), want > 0", resp.Trailer.Get("X-Beserve-Fetched"), err)
	}
	var fetchSum, peerSum int64
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		switch {
		case strings.HasPrefix(s.Name, "peer "):
			peerSum += s.Fetched
		case s.Name == "fetch":
			fetchSum += s.Fetched
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(trailer.Profile)
	if fetchSum != fetched {
		t.Errorf("profile fetch spans sum to %d, X-Beserve-Fetched trailer says %d", fetchSum, fetched)
	}
	if peerSum < fetched {
		t.Errorf("peer RPC spans carry %d rows < trailer's %d fetched", peerSum, fetched)
	}

	// The coordinator also feeds /metrics: the per-peer RPC latency
	// histograms ride behind the server's own exposition lines.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape := readAll(t, mresp)
	if !strings.Contains(scrape, `beserve_peer_rpc_latency_seconds_bucket{peer="0",`) {
		t.Errorf("/metrics lacks per-peer RPC latency histograms:\n%s", scrape)
	}
}

// TestClusterShardUnavailableOverWire kills the peers' listeners out
// from under a serving coordinator and demands structured degradation
// on BOTH server surfaces. /v1/apply refuses with a 503 and the
// {"error":{"code":"shard_unavailable"}} envelope. /v1/query streams,
// so its status line is committed before lazy execution reaches the
// dead peer (the same deliberate tradeoff the deadline handling in
// handleQuery documents): degradation there is ZERO golden rows plus a
// non-empty X-Beserve-Error trailer naming the unavailable shard —
// never a silently truncated answer.
func TestClusterShardUnavailableOverWire(t *testing.T) {
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: 2, AccidentsPerDay: 40, MaxVehicles: 6, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	k := 2
	urls := make([]string, k)
	peerServers := make([]*httptest.Server, k)
	nodes := make([]*cluster.Node, k)
	for i := 0; i < k; i++ {
		node, err := cluster.NewNode(acc.Schema, acc.Access, i, k, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		peerServers[i] = httptest.NewServer(node.InternalHandler())
		t.Cleanup(peerServers[i].Close)
		urls[i], nodes[i] = peerServers[i].URL, node
	}
	coord, err := cluster.New(acc.Schema, acc.Access, urls, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Load(acc.Instance); err != nil {
		t.Fatal(err)
	}
	srv, err := New(coord, Catalog{
		Schema:  acc.Schema,
		Access:  acc.Access,
		Queries: map[string]*cq.CQ{"Q0": workload.Q0()},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Healthy first.
	resp := postQuery(t, ts, `{"query":"Q0"}`)
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy query: status %d\n%s", resp.StatusCode, body)
	}

	// Kill every peer: whatever shard Q0's keys route to is now gone. A
	// node's framed connections outlive its HTTP server, so a drain with
	// no grace left cuts them, as a dying process would.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for i, ps := range peerServers {
		ps.Close()
		nodes[i].Drain(dead)
	}

	// Non-streaming surface: /v1/apply fails whole with the envelope.
	aresp, err := ts.Client().Post(ts.URL+"/v1/apply", "text/tab-separated-values",
		strings.NewReader("+\tAccident\t9999\tNowhere\t1/1/1970\n"))
	if err != nil {
		t.Fatal(err)
	}
	abody := readAll(t, aresp)
	if aresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded apply: status %d, want 503\n%s", aresp.StatusCode, abody)
	}
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(abody), &envelope); err != nil || envelope.Error.Code != "shard_unavailable" {
		t.Fatalf("degraded apply: want structured shard_unavailable envelope, got (err %v):\n%s", err, abody)
	}

	// Streaming surface: no rows, and the error trailer names the
	// refusal instead of presenting a truncated stream as an answer.
	resp = postQuery(t, ts, `{"query":"Q0"}`)
	body := readAll(t, resp)
	if strings.Contains(body, `"aid"`) {
		t.Fatalf("degraded query streamed rows:\n%s", body)
	}
	if got := resp.Trailer.Get("X-Beserve-Error"); !strings.Contains(got, "unavailable") {
		t.Fatalf("degraded query: X-Beserve-Error trailer = %q, want a shard-unavailable marker\nbody:\n%s", got, body)
	}
}
