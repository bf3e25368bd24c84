package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workload"
)

func accidentsEngine(t testing.TB, opts Options, days int) *Engine {
	t.Helper()
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: days, AccidentsPerDay: 10, MaxVehicles: 3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(acc.Schema, acc.Access, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(acc.Instance); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestPlanCacheHitsAndMisses(t *testing.T) {
	eng := accidentsEngine(t, Options{}, 2)
	q := workload.Q0()
	if _, _, err := eng.Plan(q); err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after first plan: %+v", st)
	}
	if _, _, err := eng.Plan(q); err != nil {
		t.Fatal(err)
	}
	// An α-renamed variant of the same shape must hit too.
	renamed := q.Substitute(map[string]cq.Term{"aid": cq.Var("a2"), "vid": cq.Var("v2")})
	renamed.Label = "Q0b"
	p, _, err := eng.Plan(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if p.Label != "Q0b" {
		t.Errorf("cached plan must carry the caller's label, got %q", p.Label)
	}
	st = eng.CacheStats()
	if st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Fatalf("after repeat plans: %+v", st)
	}
	// Query goes through the same cache.
	if _, err := eng.Query(context.Background(), q, WithFallback(FallbackRefuse)); err != nil {
		t.Fatal(err)
	}
	if st = eng.CacheStats(); st.Hits != 3 {
		t.Fatalf("Query must hit the plan cache: %+v", st)
	}
}

func TestPlanCacheCachesNotBounded(t *testing.T) {
	soc, err := workload.GenerateSocial(workload.SocialConfig{
		People: 100, MaxFriends: 5, MaxLikes: 3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(soc.Schema, soc.Access, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(soc.Instance); err != nil {
		t.Fatal(err)
	}
	// allPairs is unanchored, hence not boundedly evaluable.
	var unbounded *cq.CQ
	for _, q := range workload.PatternQueries(1) {
		if q.Label == "allPairs" {
			unbounded = q
		}
	}
	for i := 0; i < 2; i++ {
		res, err := eng.Query(context.Background(), unbounded)
		if err != nil {
			t.Fatal(err)
		}
		if res.Mode != ViaFullScan {
			t.Fatalf("iteration %d: allPairs must fall back to scan", i)
		}
	}
	st := eng.CacheStats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("not-bounded verdicts must be cached too: %+v", st)
	}
}

func TestPlanCacheRestampedOnLoad(t *testing.T) {
	// A log-cardinality constraint makes the static bound depend on |D|.
	// Reloading must not serve that stale bound — but it must not throw
	// the entry (or the cumulative counters) away either: the plan is
	// data-independent, so the entry survives with its bound re-stamped
	// at the new size.
	s := schema.MustNew(schema.MustRelation("R", "A", "B"))
	a := access.NewSchema(access.Constraint{
		Rel: "R", X: []schema.Attribute{"A"}, Y: []schema.Attribute{"B"}, Card: access.LogCard(),
	})
	mkInstance := func(n int) *data.Instance {
		d := data.NewInstance(s)
		for i := 0; i < n; i++ {
			d.MustInsert("R", value.NewInt(int64(i)), value.NewInt(int64(i%7)))
		}
		return d
	}
	eng, err := New(s, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(mkInstance(1 << 4)); err != nil {
		t.Fatal(err)
	}
	q := &cq.CQ{Label: "Q", Free: []string{"y"},
		Atoms: []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("y"))},
		Eqs:   []cq.Eq{{L: cq.Var("x"), R: cq.Const(value.NewInt(1))}}}
	_, small, err := eng.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(mkInstance(1 << 12)); err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Entries != 1 || st.Misses != 1 {
		t.Fatalf("Load must keep entries and cumulative stats: %+v", st)
	}
	_, big, err := eng.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Hits != 1 {
		t.Fatalf("re-stamped entry must serve the reload as a hit: %+v", st)
	}
	if big.Fetched <= small.Fetched {
		t.Errorf("bound must grow with |D| after reload: %d then %d", small.Fetched, big.Fetched)
	}
	if big.SizeHint != 1<<12 {
		t.Errorf("re-stamped bound reports SizeHint %d, want %d", big.SizeHint, 1<<12)
	}
}

func TestPlanCacheConstBoundsSurviveLoadVerbatim(t *testing.T) {
	// Constant-cardinality bounds do not embed |D|: reloading a very
	// different instance must keep both the entry and its bound values.
	eng := accidentsEngine(t, Options{}, 2)
	q := workload.Q0()
	_, before, err := eng.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	bigger, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: 6, AccidentsPerDay: 40, MaxVehicles: 6, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(bigger.Instance); err != nil {
		t.Fatal(err)
	}
	_, after, err := eng.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("const-bound entry must survive Load as a hit: %+v", st)
	}
	if after.Fetched != before.Fetched || after.Output != before.Output {
		t.Errorf("const bound changed across Load: %+v then %+v", before, after)
	}
	if after.SizeHint != bigger.Instance.Size() {
		t.Errorf("surviving entry must report the new size hint: %d, want %d",
			after.SizeHint, bigger.Instance.Size())
	}
}

func TestPlanCacheDisabledAndLRU(t *testing.T) {
	off := accidentsEngine(t, Options{PlanCache: -1}, 2)
	q := workload.Q0()
	for i := 0; i < 3; i++ {
		if _, _, err := off.Plan(q); err != nil {
			t.Fatal(err)
		}
	}
	if st := off.CacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache must stay empty: %+v", st)
	}

	// Four structurally distinct shapes (queries differing only in their
	// constants would share one template entry).
	lru := accidentsEngine(t, Options{PlanCache: 2}, 2)
	accident := func(label string, free []string, pin string, c value.Value) *cq.CQ {
		return &cq.CQ{Label: label, Free: free,
			Atoms: []cq.Atom{cq.NewAtom("Accident", cq.Var("a"), cq.Var("d"), cq.Var("t"))},
			Eqs:   []cq.Eq{{L: cq.Var(pin), R: cq.Const(c)}}}
	}
	shapes := []*cq.CQ{
		workload.Q0(),
		accident("S0", []string{"d"}, "t", value.NewString(workload.DateName(0))),
		accident("S1", []string{"t"}, "a", value.NewInt(1)),
		accident("S2", []string{"d", "t"}, "a", value.NewInt(2)),
	}
	for _, q := range shapes {
		if _, _, err := lru.Plan(q); err != nil {
			t.Fatal(err)
		}
	}
	if st := lru.CacheStats(); st.Entries != 2 {
		t.Fatalf("LRU must cap entries at capacity 2: %+v", st)
	}
	// The most recent shape is still cached.
	if _, _, err := lru.Plan(shapes[len(shapes)-1]); err != nil {
		t.Fatal(err)
	}
	if st := lru.CacheStats(); st.Hits != 1 {
		t.Fatalf("most recent shape must still hit: %+v", st)
	}
}

// TestConcurrentQuery hammers one Engine from many goroutines with a
// mix of bounded and unbounded queries; run with -race this verifies the
// documented guarantee that an Engine is safe for concurrent readers after
// Load, including the shared plan cache.
func TestConcurrentQuery(t *testing.T) {
	soc, err := workload.GenerateSocial(workload.SocialConfig{
		People: 300, MaxFriends: 10, MaxLikes: 5, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(soc.Schema, soc.Access, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(soc.Instance); err != nil {
		t.Fatal(err)
	}
	queries := workload.PatternQueries(1)
	queries = append(queries, workload.GraphSearchQuery(1, "NYC", "cycling"))

	// Reference answers, computed single-threaded.
	want := make([]int, len(queries))
	for i, q := range queries {
		res, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = len(res.Rows)
	}

	const goroutines = 16
	const iters = 30
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (g + i) % len(queries)
				res, err := eng.Query(context.Background(), queries[qi])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
				if len(res.Rows) != want[qi] {
					errs <- fmt.Errorf("goroutine %d: query %s: %d rows, want %d",
						g, queries[qi].Label, len(res.Rows), want[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := eng.CacheStats(); st.Hits == 0 {
		t.Errorf("concurrent load must hit the plan cache: %+v", st)
	}
}
