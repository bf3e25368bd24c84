package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFromContextDisabledIsNil(t *testing.T) {
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext with no live trace = %v, want nil", got)
	}
	if Enabled() {
		t.Fatal("Enabled() = true with no live trace")
	}
}

func TestFromContextDisabledAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		if FromContext(ctx) != nil {
			t.Fatal("unexpected trace")
		}
	})
	if allocs != 0 {
		t.Fatalf("FromContext disabled path allocates %v per call, want 0", allocs)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := NewTrace("query")
	defer tr.Finish()
	if !Enabled() {
		t.Fatal("Enabled() = false with a live trace")
	}
	ctx := NewContext(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %v, want the attached trace", got)
	}
	// A context without the trace still yields nil even while the
	// guard is hot.
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext on bare ctx = %v, want nil", got)
	}
}

func TestSpanTreeNesting(t *testing.T) {
	tr := NewTrace("root")
	a := tr.Start("a")
	aa := tr.StartDetail("aa", "inner")
	aa.SetRows(3)
	aa.End()
	a.End()
	b := tr.Start("b")
	b.SetFetch(10, 2)
	b.End()
	root := tr.Finish()

	if len(root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(root.Children))
	}
	if root.Children[0].Name != "a" || root.Children[1].Name != "b" {
		t.Fatalf("children = %q, %q", root.Children[0].Name, root.Children[1].Name)
	}
	inner := root.Children[0].Children
	if len(inner) != 1 || inner[0].Name != "aa" || inner[0].Detail != "inner" || inner[0].Rows != 3 {
		t.Fatalf("nested span wrong: %+v", inner)
	}
	if b := root.Children[1]; b.Fetched != 10 || b.Keys != 2 {
		t.Fatalf("fetch accounting wrong: %+v", b)
	}
	if root.ElapsedNS <= 0 {
		t.Fatalf("root elapsed = %d, want > 0", root.ElapsedNS)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	sp := tr.Start("x")
	sp.End()
	sp.SetRows(1)
	sp.SetFetch(1, 1)
	sp.SetScanned(1)
	sp.SetDetail("d")
	tr.AddCounterSpan("c", "", 0, 0, 0)
	tr.OnFinish(func(*Trace) {})
	if tr.Finish() != nil || tr.Root() != nil {
		t.Fatal("nil trace returned non-nil span")
	}
	var sc *ShardCounters
	sc.Route(0, 1, 1)
	sc.Scatter(0, 1, 1)
	var sl *SlowLog
	sl.Record(SlowEntry{}, time.Hour, nil)
	if sl.Enabled() {
		t.Fatal("nil slowlog should be disabled")
	}
}

func TestFinishIdempotentAndLiveGuard(t *testing.T) {
	before := live.Load()
	tr := NewTrace("q")
	if live.Load() != before+1 {
		t.Fatalf("live = %d after NewTrace, want %d", live.Load(), before+1)
	}
	r1 := tr.Finish()
	r2 := tr.Finish()
	if r1 != r2 {
		t.Fatal("Finish not idempotent")
	}
	if live.Load() != before {
		t.Fatalf("live = %d after Finish, want %d", live.Load(), before)
	}
	// Starting spans after Finish is a no-op, not a corruption.
	if sp := tr.Start("late"); sp != nil {
		t.Fatal("Start after Finish returned a span")
	}
}

func TestConcurrentSpanRecording(t *testing.T) {
	tr := NewTrace("q")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp := tr.Start("w")
				sp.SetRows(1)
				sp.End()
			}
		}()
	}
	wg.Wait()
	root := tr.Finish()
	var n int
	root.Walk(func(*Span) { n++ })
	if n != 1+8*100 {
		t.Fatalf("span count = %d, want %d", n, 1+8*100)
	}
}

func TestShardCountersEmit(t *testing.T) {
	tr := NewTrace("q")
	sc := NewShardCounters(tr, 4)
	sc.Route(1, 2, 5)
	sc.Scatter(0, 1, 3)
	sc.Scatter(2, 1, 0) // keys but no rows still emits
	root := tr.Finish()

	want := map[string][3]int64{ // name -> rows, fetched, keys
		"shard 1 route":   {5, 5, 2},
		"shard 0 scatter": {3, 3, 1},
		"shard 2 scatter": {0, 0, 1},
	}
	seen := map[string]bool{}
	for _, c := range root.Children {
		w, ok := want[c.Name]
		if !ok {
			t.Fatalf("unexpected counter span %q", c.Name)
		}
		if c.Rows != w[0] || c.Fetched != w[1] || c.Keys != w[2] {
			t.Fatalf("%s = rows %d fetched %d keys %d, want %v", c.Name, c.Rows, c.Fetched, c.Keys, w)
		}
		seen[c.Name] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("saw %d counter spans, want %d", len(seen), len(want))
	}
}

func TestTopSpans(t *testing.T) {
	root := &Span{Name: "root", ElapsedNS: 100}
	add := func(name string, ns int64) *Span {
		s := &Span{Name: name, ElapsedNS: ns}
		root.Children = append(root.Children, s)
		return s
	}
	add("a", 5)
	b := add("b", 50)
	b.Children = append(b.Children, &Span{Name: "b1", ElapsedNS: 40})
	add("c", 10)
	add("d", 1)

	top := TopSpans(root, 3)
	if len(top) != 3 {
		t.Fatalf("len = %d, want 3", len(top))
	}
	if top[0].Name != "b" || top[1].Name != "b1" || top[2].Name != "c" {
		t.Fatalf("top = %s,%s,%s", top[0].Name, top[1].Name, top[2].Name)
	}
}

func TestHistogramObserveAndWrite(t *testing.T) {
	h := NewHistogram("x_seconds", "test histogram", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	h.Write(&buf)
	want := `# HELP x_seconds test histogram
# TYPE x_seconds histogram
x_seconds_bucket{le="0.1"} 1
x_seconds_bucket{le="1"} 3
x_seconds_bucket{le="10"} 4
x_seconds_bucket{le="+Inf"} 5
x_seconds_sum 56.05
x_seconds_count 5
`
	if buf.String() != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram("c", "concurrent", LatencyBuckets())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.002)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if got, want := h.Sum(), 16.0; got < want-1e-6 || got > want+1e-6 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestSlowLogThresholdAndShape(t *testing.T) {
	var buf bytes.Buffer
	sl := NewSlowLog(&buf, 10*time.Millisecond)
	if !sl.Enabled() {
		t.Fatal("slowlog should be enabled")
	}

	// Under threshold: nothing.
	sl.Record(SlowEntry{Query: "fast"}, time.Millisecond, nil)
	if buf.Len() != 0 {
		t.Fatalf("under-threshold request logged: %q", buf.String())
	}

	root := &Span{Name: "query"}
	root.Children = []*Span{
		{Name: "plan", ElapsedNS: 2e6},
		{Name: "fetch", Detail: "T0[x->y]", ElapsedNS: 9e6, Rows: 42},
	}
	sl.Record(SlowEntry{
		Query: "slow", CacheKey: "k", Bound: 7, Mode: "plan",
		Fetched: 42, FetchKeys: 3, CacheHit: true,
	}, 25*time.Millisecond, root)

	var entry SlowEntry
	if err := json.Unmarshal(buf.Bytes(), &entry); err != nil {
		t.Fatalf("slow log line is not JSON: %v (%q)", err, buf.String())
	}
	if entry.Query != "slow" || entry.CacheKey != "k" || entry.Bound != 7 || !entry.CacheHit {
		t.Fatalf("entry fields wrong: %+v", entry)
	}
	if entry.ElapsedMS < 24.9 || entry.ElapsedMS > 25.1 {
		t.Fatalf("elapsed_ms = %v, want ~25", entry.ElapsedMS)
	}
	if len(entry.TopSpans) != 2 || entry.TopSpans[0].Name != "fetch" || entry.TopSpans[0].Rows != 42 {
		t.Fatalf("top spans wrong: %+v", entry.TopSpans)
	}
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Fatal("slow log line must end in newline")
	}
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("want exactly one line, got %d", got)
	}
}

func TestNewSlowLogDisabled(t *testing.T) {
	if NewSlowLog(&bytes.Buffer{}, 0) != nil {
		t.Fatal("threshold 0 should disable")
	}
	if NewSlowLog(nil, time.Second) != nil {
		t.Fatal("nil writer should disable")
	}
}

func TestSpanJSONSchema(t *testing.T) {
	root := &Span{
		Name: "query", ElapsedNS: 1000, Rows: 2,
		Children: []*Span{{Name: "fetch", Detail: "T0", ElapsedNS: 400, Fetched: 5, Keys: 1}},
	}
	b, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"name", "elapsed_ns", "rows", "children"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("span JSON missing %q: %s", k, b)
		}
	}
	// Empty accounting fields are omitted.
	if _, ok := m["fetched"]; ok {
		t.Fatalf("root span should omit fetched: %s", b)
	}
}
