package main

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/workload"
)

// testConfig is a run small and short enough for the package's tests.
func testConfig(t *testing.T) config {
	return config{
		seed: 11, seconds: 1, trace: traceBoth, outDir: t.TempDir(),
		scale: scale{accidentDays: 60, socialPeople: 1500}, setupReps: 1, warm: 100 * time.Millisecond,
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{99, 50},      // 9.9 samples beyond p90
		{100, 90},     // exactly 10 beyond p90
		{199, 90},     // 9.95 beyond p95
		{200, 95},     // exactly 10 beyond p95
		{999, 95},     // 9.99 beyond p99
		{1000, 99},    // exactly 10 beyond p99
		{9999, 99},    // 9.999 beyond p99.9
		{10000, 99.9}, // exactly 10 beyond p99.9
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(asc, 50); got != 5 {
		t.Errorf("p50 = %g, want 5 (nearest rank)", got)
	}
	if got := percentile(asc, 99); got != 10 {
		t.Errorf("p99 = %g, want 10", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
	if q1, q2, q3 := quartiles([]float64{10, 20, 30}); q1 != 10 || q2 != 20 || q3 != 30 {
		t.Errorf("quartiles = %g %g %g, want 10 20 30", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSliceMedians(t *testing.T) {
	// Three seconds: two quiet ones at 100 µs, one disturbed at 900 µs
	// with half the completions. The medians ignore the disturbed second.
	var us, at []float64
	for s, lat := range []float64{100, 900, 100} {
		n := 10
		if lat == 900 {
			n = 5
		}
		for i := 0; i < n; i++ {
			us = append(us, lat)
			at = append(at, float64(s)+float64(i)/10)
		}
	}
	p50, p90, qps := sliceMedians(us, at, 3*time.Second)
	if p50 != 100 || p90 != 100 || qps != 10 {
		t.Errorf("sliceMedians = %g us, %g us, %g 1/s; want 100, 100, 10", p50, p90, qps)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},      // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0},     // outlives the parent
		{Name: "inside", Start: 15, End: 20, Parent: 1}, // a's child, not the parent's
		{Name: "d", Start: 35, End: 50, Parent: 0},      // wholly inside a ∪ b
	}
	self := selfTimes(spans)
	// The parent's children cover [10,60) and [90,100): 60 of its 100.
	if self[0] != 40 {
		t.Errorf("parent self time = %d, want 40", self[0])
	}
	if self[1] != 25 {
		t.Errorf("a's self time = %d, want 30-5", self[1])
	}
	if self[2] != 30 || self[4] != 5 {
		t.Errorf("leaf self times = %d, %d; want their durations 30, 5", self[2], self[4])
	}
}

func TestCountingTransport(t *testing.T) {
	tr := newTracer()
	var nodeParent string
	ts := httptest.NewServer(tracedHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		nodeParent = r.Header.Get(spanHeader)
		body, _ := io.ReadAll(r.Body)
		if string(body) == "fail" {
			w.WriteHeader(http.StatusInternalServerError)
		}
		io.WriteString(w, "12345")
	}), tr))
	defer ts.Close()
	ct := &countingTransport{base: http.DefaultTransport, tr: tr}
	hc := &http.Client{Transport: ct}
	post := func(url, body string) {
		resp, err := hc.Post(url, "text/plain", bytes.NewReader([]byte(body)))
		if err != nil {
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	post(ts.URL, "idle") // tracer off: nothing is recorded
	if ct.calls.Load() != 0 || len(tr.snapshot()) != 0 {
		t.Fatalf("recorded %d calls, %d spans with the tracer off", ct.calls.Load(), len(tr.snapshot()))
	}

	tr.on.Store(true)
	root := tr.startRoot("wire.query", 7)
	post(ts.URL, "abc")
	post(ts.URL, "fail")
	post("http://127.0.0.1:1", "nobody listens here")
	tr.end(root)
	if got := ct.calls.Load(); got != 3 {
		t.Errorf("calls = %d, want 3", got)
	}
	if got := ct.failed.Load(); got != 2 {
		t.Errorf("failed = %d, want 2 (one 500, one refused connection)", got)
	}
	if got := ct.reqBytes.Load(); got != int64(len("abc")+len("fail")+len("nobody listens here")) {
		t.Errorf("request bytes = %d", got)
	}
	if got := ct.respBytes.Load(); got != 10 {
		t.Errorf("response bytes = %d, want 2×5", got)
	}
	spans := tr.snapshot()
	var rpcs, nodes int
	for i, s := range spans {
		switch s.Name {
		case "cluster.rpc":
			rpcs++
			if s.Parent != root || s.Request != 7 || s.End < s.Start {
				t.Errorf("rpc span %d = %+v, want parent %d, request 7", i, s, root)
			}
		case "cluster.node_handle":
			nodes++
			if spans[s.Parent].Name != "cluster.rpc" {
				t.Errorf("node span %d hangs under %q, want an rpc span", i, spans[s.Parent].Name)
			}
		}
	}
	if rpcs != 3 || nodes != 2 {
		t.Errorf("%d rpc spans, %d node spans; want 3, 2", rpcs, nodes)
	}
	if nodeParent == "" {
		t.Error("the node side never saw the span header")
	}
}

// generated renders everything a seed determines, for comparison.
func generated(t *testing.T, spec workloadSpec, cfg config) []byte {
	t.Helper()
	ds := newDataset(spec.data, cfg.seed, cfg.scale)
	inst, err := ds.generate()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, rs := range ds.schema.Relations() {
		rel := inst.Relation(rs.Name)
		for i := 0; i < rel.Len(); i++ {
			out.Write(rel.AppendRowKey(nil, i))
		}
	}
	var facts *socialFacts
	if spec.data == dataSocial {
		facts = newSocialFacts(inst)
	}
	m := newMix(spec.reqs, cfg.seed, cfg.scale, facts)
	for _, name := range slices.Sorted(maps.Keys(m.catalog)) {
		out.WriteString(name + m.catalog[name].String())
	}
	for _, seq := range m.seqs {
		for _, r := range seq[:200] {
			out.Write(r.body)
		}
	}
	if spec.writer {
		sc := workload.DefaultAccidentStreamConfig()
		sc.Seed = cfg.seed ^ saltStream
		st, err := workload.NewAccidentStream(&workload.Accidents{Schema: ds.schema, Access: ds.access, Instance: inst}, sc)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := live.WriteDeltaTSV(&out, st.Next()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out.Bytes()
}

func TestGenerationIsAFunctionOfTheSeed(t *testing.T) {
	cfg := testConfig(t)
	for _, spec := range workloads {
		a, b := generated(t, spec, cfg), generated(t, spec, cfg)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed %d differ", spec.Name, cfg.seed)
		}
		other := cfg
		other.seed++
		if bytes.Equal(a, generated(t, spec, other)) {
			t.Errorf("%s: seeds %d and %d generate the same inputs", spec.Name, cfg.seed, other.seed)
		}
	}
}

// writerOnly are the end-to-end metrics only a workload with a writer
// reports.
var writerOnly = map[string]bool{"apply_p50_us": true, "apply_p90_us": true, "apply_per_s": true}

// TestSmoke runs all five workloads for a second each, both passes,
// and checks the output contract: every metric named in the tables is
// emitted once with its unit, nothing fails, and the cluster fetches
// exactly what the single engine fetches for the same requests.
func TestSmoke(t *testing.T) {
	cfg := testConfig(t)
	fetched := map[string]float64{}
	for _, spec := range workloads {
		spec.tracedRequests, spec.tracedDeltas = 40, min(spec.tracedDeltas, 4)
		res, err := runWorkload(spec, cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d", spec.Name, res.Correct, res.Attempted, res.Failed)
		}
		want := map[string]string{}
		for _, d := range endToEnd {
			if !writerOnly[d.Name] || spec.writer {
				want[d.Name] = d.Unit
			}
		}
		for _, d := range perLayer {
			want[d.Name] = d.Unit
		}
		for name, unit := range want {
			m, ok := res.Metrics[name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s is missing", spec.Name, name)
			case m.Unit != unit:
				t.Errorf("%s: metric %s has unit %q, want %q", spec.Name, name, m.Unit, unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: metric %s = %v", spec.Name, name, m.Value)
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics emitted, want %d", spec.Name, len(res.Metrics), len(want))
		}
		if res.Metrics["failed_share"].Value != 0 {
			t.Errorf("%s: failed_share = %v", spec.Name, res.Metrics["failed_share"].Value)
		}
		for _, name := range []string{"query_p50_us", "query_p90_us", "query_p99_us", "query_qps", "fetched_per_query", "setup_s", "heap_after_setup_mb"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", spec.Name, name, res.Metrics[name].Value)
			}
		}
		fetched[spec.Name] = res.Metrics["fetched_per_query"].Value
		if _, err := os.Stat(cfg.outDir + "/trace-" + spec.Name + ".jsonl"); err != nil {
			t.Errorf("%s: no trace file: %v", spec.Name, err)
		}
	}
	if fetched["point_cluster_k4"] != fetched["point_single"] {
		t.Errorf("fetched_per_query: cluster %v, single engine %v; the same requests must fetch the same tuples",
			fetched["point_cluster_k4"], fetched["point_single"])
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this
// package saying the same thing.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q / %q differs from the package's %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if !ungated[d.Name] {
			gated = append(gated, d)
		}
	}
	if len(spec.EndToEnd) != len(gated) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d gated here", len(spec.EndToEnd), len(gated))
	}
	for i, m := range spec.EndToEnd {
		if d := gated[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: %+v differs from %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: %+v differs from %+v", i, m, d)
		}
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "query_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	parent := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{[]float64{100, 100, 101, 99, 100}, "same"},
		{[]float64{120, 121, 119, 120, 122}, "worse"},
		{[]float64{80, 81, 79, 80, 82}, "better"},
		{[]float64{105, 106, 104, 105, 107}, "same"}, // worse, but within the bound
		{[]float64{60, 100, 140, 80, 120}, "unresolved"},
	} {
		if got := verdict(d, parent, c.change); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.change, got, c.want)
		}
	}
	fails := metricDef{Name: "failed_share", Unit: "ratio", Better: "lower"}
	if got := verdict(fails, []float64{0, 0, 0}, []float64{0, 0.01, 0}); got != "worse" {
		t.Errorf("a rise in failed_share is %s, want worse", got)
	}
}
