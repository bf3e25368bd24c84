package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/posfo"
	"repro/internal/schema"
	"repro/internal/ucq"
	"repro/internal/value"
	"repro/internal/workload"
)

// socialEngine builds a social-graph engine big enough that the path3
// walk runs long enough to be canceled mid-flight.
func socialEngine(t testing.TB, people int, opts Options) *Engine {
	t.Helper()
	soc, err := workload.GenerateSocial(workload.SocialConfig{
		People: people, MaxFriends: 50, MaxLikes: 10, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(soc.Schema, soc.Access, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(soc.Instance); err != nil {
		t.Fatal(err)
	}
	return eng
}

// sameTuples reports whether two row slices are byte-identical in order.
func sameTuples(a, b []data.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestQueryEquivalentToLegacyPaths is the equivalence property test of
// the unified API: on the accidents, social, and random-CQ workloads,
// Query must return byte-identical rows (same order), identical stats and
// the same mode as the primitive execution paths the legacy entry points
// were built from — plan.Execute on the synthesized plan for bounded
// queries, eval.CQ for scans.
func TestQueryEquivalentToLegacyPaths(t *testing.T) {
	type fixture struct {
		name string
		eng  *Engine // serving engine (plan cache on)
		ref  *Engine // reference engine (plan cache off)
		qs   []*cq.CQ
	}
	var fixtures []fixture

	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: 6, AccidentsPerDay: 15, MaxVehicles: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	consts := map[schema.Attribute][]cq.Term{
		"date": {cq.Const(value.NewString("1/5/2005"))},
		"aid":  {cq.Const(iv(3))},
		"vid":  {cq.Const(iv(5))},
	}
	randomQs, err := workload.RandomCQs(acc.Schema, workload.RandomCQConfig{
		Queries: 30, MaxAtoms: 4, StartProb: 0.7, FreeVars: 2, Seed: 9,
	}, consts)
	if err != nil {
		t.Fatal(err)
	}
	q51, _ := workload.Q51()
	accQs := append([]*cq.CQ{workload.Q0(), q51}, randomQs...)
	newPair := func(s *schema.Schema, a *access.Schema, d *data.Instance) (*Engine, *Engine) {
		t.Helper()
		eng, err := New(s, a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(s, a, Options{PlanCache: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Load(d); err != nil {
			t.Fatal(err)
		}
		if err := ref.Load(d); err != nil {
			t.Fatal(err)
		}
		return eng, ref
	}
	engA, refA := newPair(acc.Schema, acc.Access, acc.Instance)
	fixtures = append(fixtures, fixture{name: "accidents", eng: engA, ref: refA, qs: accQs})

	soc, err := workload.GenerateSocial(workload.SocialConfig{
		People: 400, MaxFriends: 15, MaxLikes: 5, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	engS, refS := newPair(soc.Schema, soc.Access, soc.Instance)
	socQs := append([]*cq.CQ{workload.GraphSearchQuery(1, "NYC", "cycling"), workload.Path3Query(1)},
		workload.PatternQueries(1)...)
	fixtures = append(fixtures, fixture{name: "social", eng: engS, ref: refS, qs: socQs})

	bounded, scanned := 0, 0
	for _, fx := range fixtures {
		for _, q := range fx.qs {
			// Reference answer from the primitive paths, over one pinned
			// snapshot pair (mixing Instance() and Indexed() could tear
			// across a concurrent Apply — bevet's snapshottear flags it).
			var wantRows []data.Tuple
			var wantMode Mode
			var wantFetched, wantScanned int64
			refIx := fx.ref.Indexed()
			refInst := refIx.Instance
			p, _, perr := fx.ref.Plan(q)
			switch {
			case perr == nil:
				tbl, st, err := plan.Execute(p, refIx)
				if err != nil {
					t.Fatalf("%s/%s: reference execute: %v", fx.name, q.Label, err)
				}
				wantRows, wantMode, wantFetched = tbl.Rows, ViaBoundedPlan, st.Fetched
				bounded++
			default:
				var nb *NotBoundedError
				if !asNotBounded(perr, &nb) {
					continue // planning rejected the random query on both paths
				}
				r, err := eval.CQ(q, refInst, eval.HashJoin)
				if err != nil {
					t.Fatalf("%s/%s: reference eval: %v", fx.name, q.Label, err)
				}
				wantRows, wantMode, wantScanned = r.Rows, ViaFullScan, r.Scanned
				scanned++
			}

			// Twice, so the second round serves from the plan cache.
			for round := 0; round < 2; round++ {
				res, err := fx.eng.Query(context.Background(), q)
				if err != nil {
					t.Fatalf("%s/%s round %d: Query: %v", fx.name, q.Label, round, err)
				}
				if res.Mode != wantMode {
					t.Fatalf("%s/%s round %d: mode %v, want %v", fx.name, q.Label, round, res.Mode, wantMode)
				}
				if !sameTuples(res.Rows, wantRows) {
					t.Fatalf("%s/%s round %d: rows diverge from the legacy path", fx.name, q.Label, round)
				}
				if res.Stats.Fetched != wantFetched || res.Stats.Scanned != wantScanned {
					t.Fatalf("%s/%s round %d: stats {f=%d s=%d}, want {f=%d s=%d}",
						fx.name, q.Label, round, res.Stats.Fetched, res.Stats.Scanned, wantFetched, wantScanned)
				}
				if len(res.Columns) == 0 {
					t.Fatalf("%s/%s: result must carry columns in mode %v", fx.name, q.Label, res.Mode)
				}

				// FallbackRefuse must serve exactly the bounded answers and
				// refuse everything else (the contract Execute used to wrap).
				refuse, err := fx.eng.Query(context.Background(), q, WithFallback(FallbackRefuse))
				if wantMode == ViaBoundedPlan {
					if err != nil {
						t.Fatalf("%s/%s: Query(FallbackRefuse): %v", fx.name, q.Label, err)
					}
					if !sameTuples(refuse.Rows, res.Rows) || refuse.Stats.Fetched != res.Stats.Fetched {
						t.Fatalf("%s/%s: FallbackRefuse diverges from the default fallback", fx.name, q.Label)
					}
				} else if err == nil {
					t.Fatalf("%s/%s: Query(FallbackRefuse) must refuse a non-bounded query", fx.name, q.Label)
				}
			}
		}
	}
	if bounded < 3 || scanned < 3 {
		t.Fatalf("workload too weak to be a property test: %d bounded, %d scanned", bounded, scanned)
	}
}

// cancelAfterCtx is a context whose Err starts reporting Canceled after n
// checks: it proves deterministically that execution observes ctx
// mid-flight (the first checks pass, so work had started) without racing
// a timer against the scheduler.
type cancelAfterCtx struct {
	context.Context
	left atomic.Int64
}

func cancelAfter(n int64) *cancelAfterCtx {
	c := &cancelAfterCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *cancelAfterCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func (c *cancelAfterCtx) checked() bool { return c.left.Load() < 0 }

// TestQueryCancelMidExecution proves an in-flight query observes ctx.Err
// on both serving paths: the bounded executor and the scan fallback.
func TestQueryCancelMidExecution(t *testing.T) {
	eng := socialEngine(t, 1500, Options{})

	t.Run("bounded", func(t *testing.T) {
		ctx := cancelAfter(8)
		_, err := eng.Query(ctx, workload.Path3Query(1))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled through the executor, got %v", err)
		}
		if !ctx.checked() {
			t.Fatal("cancellation must have been observed mid-execution")
		}
	})

	t.Run("scan-fallback", func(t *testing.T) {
		// allPairs is unanchored (not bounded) and scans the whole Friend
		// relation — tens of thousands of tuples, far past the evaluator's
		// cancellation stride.
		var allPairs *cq.CQ
		for _, q := range workload.PatternQueries(1) {
			if q.Label == "allPairs" {
				allPairs = q
			}
		}
		if _, _, err := eng.Plan(allPairs); err == nil {
			t.Fatal("allPairs must not be bounded for this test to bite")
		}
		ctx := cancelAfter(8)
		_, err := eng.Query(ctx, allPairs)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled through the scan evaluator, got %v", err)
		}
	})
}

// TestCanceledQueryCountsFetched pins the engine counter's meaning — every
// tuple fetched, not every tuple fetched by a request that succeeded: a
// bounded query canceled mid-plan advances Stats().Fetched by what it had
// fetched before it stopped, and by the same amount materialized as
// streamed — otherwise Stats and /metrics undercount under load shedding.
func TestCanceledQueryCountsFetched(t *testing.T) {
	eng := socialEngine(t, 1500, Options{})
	// advance runs path3 under a ctx canceled at its n-th observation and
	// reports how far the engine counter moved.
	advance := func(n int64, opts ...QueryOption) int64 {
		t.Helper()
		before := eng.Stats().Fetched
		res, err := eng.Query(cancelAfter(n), workload.Path3Query(1), opts...)
		if err == nil {
			for range res.Seq() {
			}
			err = res.Err()
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("n=%d: want context.Canceled mid-plan, got %v", n, err)
		}
		return eng.Stats().Fetched - before
	}
	var most int64
	for n := int64(1); n <= 16; n++ {
		materialized, streamed := advance(n), advance(n, WithStream())
		if materialized != streamed {
			t.Fatalf("n=%d: engine Fetched advanced by %d materialized, %d streamed", n, materialized, streamed)
		}
		most = max(most, materialized)
	}
	if most == 0 {
		t.Fatal("no canceled run had fetched anything: the test does not bite")
	}
}

// TestWithAccessBudget pins the admission-control semantics: a bounded
// query is refused exactly when its static bound exceeds the budget, and
// a non-bounded query can never be admitted under a budget (a scan has no
// static bound).
func TestWithAccessBudget(t *testing.T) {
	eng := newAccidentEngine(t)
	q := workload.Q0()
	_, bound, err := eng.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if bound.Fetched <= 0 {
		t.Fatalf("bound = %v", bound)
	}

	res, err := eng.Query(context.Background(), q, WithAccessBudget(bound.Fetched))
	if err != nil {
		t.Fatalf("budget == bound must admit: %v", err)
	}
	if res.Stats.Fetched > bound.Fetched {
		t.Fatalf("fetched %d exceeded the admitted bound %d", res.Stats.Fetched, bound.Fetched)
	}

	_, err = eng.Query(context.Background(), q, WithAccessBudget(bound.Fetched-1))
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("budget < bound must refuse with *BudgetError, got %v", err)
	}
	if be.Bound == nil || be.Bound.Fetched != bound.Fetched || be.Budget != bound.Fetched-1 {
		t.Fatalf("refusal must carry the bound and budget: %+v", be)
	}

	// Not bounded + budget: refused regardless of the scan fallback.
	q51, _ := workload.Q51()
	_, err = eng.Query(context.Background(), q51, WithAccessBudget(1<<40))
	if !errors.As(err, &be) {
		t.Fatalf("unbounded query under a budget must refuse, got %v", err)
	}
	if be.Bound != nil {
		t.Fatalf("no static bound exists for a scan: %+v", be)
	}
	// Without a budget the same query scans fine.
	if _, err := eng.Query(context.Background(), q51); err != nil {
		t.Fatalf("scan fallback without budget: %v", err)
	}
}

// TestResultColumnsEveryMode is the regression test for the scan path
// dropping column names: Result (and the legacy AutoResult) must carry
// Columns whichever mode answered.
func TestResultColumnsEveryMode(t *testing.T) {
	eng := newAccidentEngine(t)

	res, err := eng.Query(context.Background(), workload.Q0())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ViaBoundedPlan || fmt.Sprint(res.Columns) != fmt.Sprint(workload.Q0().Free) {
		t.Fatalf("bounded mode columns = %v (mode %v), want %v", res.Columns, res.Mode, workload.Q0().Free)
	}

	q51, _ := workload.Q51()
	res, err = eng.Query(context.Background(), q51)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ViaFullScan {
		t.Fatalf("Q51 should fall back to scan, got %v", res.Mode)
	}
	if fmt.Sprint(res.Columns) != fmt.Sprint(q51.Free) {
		t.Fatalf("scan mode columns = %v, want the free tuple %v", res.Columns, q51.Free)
	}
}

// TestQueryEnvelopeFallback serves a non-bounded query via its upper
// envelope: the result says so, carries the envelope, and its answers
// contain the exact ones.
func TestQueryEnvelopeFallback(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R", "A", "B"))
	a := access.NewSchema(access.NewConstraint("R",
		[]schema.Attribute{"A"}, []schema.Attribute{"B"}, 3))
	eng, err := New(s, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := data.NewInstance(s)
	d.MustInsert("R", iv(1), iv(42))
	d.MustInsert("R", iv(42), iv(1))
	d.MustInsert("R", iv(2), iv(3))
	if err := eng.Load(d); err != nil {
		t.Fatal(err)
	}
	// Example 4.1's Q1: bounded but not boundedly evaluable.
	q := &cq.CQ{
		Label: "Q41", Free: []string{"x"},
		Atoms: []cq.Atom{
			cq.NewAtom("R", cq.Var("w"), cq.Var("x")),
			cq.NewAtom("R", cq.Var("y"), cq.Var("w")),
			cq.NewAtom("R", cq.Var("x"), cq.Var("z")),
		},
		Eqs: []cq.Eq{{L: cq.Var("w"), R: cq.Const(iv(1))}},
	}
	res, err := eng.Query(context.Background(), q, WithFallback(FallbackEnvelope))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ViaUpperEnvelope || res.Envelope == nil || res.Plan == nil || res.Bound == nil {
		t.Fatalf("envelope serving: mode=%v envelope=%v", res.Mode, res.Envelope)
	}
	exact, err := eng.Baseline(q, eval.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool, len(res.Rows))
	for _, r := range res.Rows {
		have[fmt.Sprint(r)] = true
	}
	for _, r := range exact.Rows {
		if !have[fmt.Sprint(r)] {
			t.Fatalf("envelope answers must contain the exact answers; missing %v", r)
		}
	}
	// The result reports the submitted query, not the relaxation.
	if res.Query != "Q41" {
		t.Fatalf("envelope result label = %q, want the submitted query's", res.Query)
	}
	// The envelope search and Qu's plan are memoized: a repeat request is
	// a cache hit and returns the identical answer.
	res2, err := eng.Query(context.Background(), q, WithFallback(FallbackEnvelope))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Stats.CacheHit {
		t.Fatal("repeat envelope serving must hit the plan cache")
	}
	if !sameTuples(res2.Rows, res.Rows) {
		t.Fatal("cached envelope plan must return identical rows")
	}
	// Refuse mode surfaces the NotBoundedError instead.
	var nb *NotBoundedError
	if _, err := eng.Query(context.Background(), q, WithFallback(FallbackRefuse)); !errors.As(err, &nb) {
		t.Fatalf("refuse mode must return NotBoundedError, got %v", err)
	}
}

// TestUCQPlanCache pins the satellite fix for the documented cache gap:
// union plans (and non-covered verdicts) are memoized under the UCQ
// canonical key, including sub-query permutations and α-renamings.
func TestUCQPlanCache(t *testing.T) {
	eng, u := example35Engine(t)
	base := eng.CacheStats()

	first, err := eng.Query(context.Background(), u, WithFallback(FallbackRefuse))
	if err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Misses != base.Misses+1 || st.Hits != base.Hits {
		t.Fatalf("first union call must miss once: %+v", st)
	}

	second, err := eng.Query(context.Background(), u, WithFallback(FallbackRefuse))
	if err != nil {
		t.Fatal(err)
	}
	st = eng.CacheStats()
	if st.Hits != base.Hits+1 {
		t.Fatalf("repeat union call must hit the plan cache: %+v", st)
	}
	if !sameTuples(first.Rows, second.Rows) {
		t.Fatal("cached union plan must return identical rows")
	}

	// A permuted union has the same sorted-multiset key.
	perm, err := ucq.New("U35perm", u.Subs[1], u.Subs[0])
	if err != nil {
		t.Fatal(err)
	}
	permRes, err := eng.Query(context.Background(), perm)
	if err != nil {
		t.Fatal(err)
	}
	st = eng.CacheStats()
	if st.Hits != base.Hits+2 {
		t.Fatalf("permuted union must hit the same entry: %+v", st)
	}
	if permRes.Query != "U35perm" {
		t.Fatalf("cached plan must carry the caller's label, got %q", permRes.Query)
	}
	if !sameTuples(permRes.Rows, first.Rows) {
		t.Fatal("permuted union must return the same answer set")
	}

	// Non-covered unions cache their refusal too.
	free := &cq.CQ{Label: "Qfree", Free: []string{"y"},
		Atoms: []cq.Atom{cq.NewAtom("Rp", cq.Var("x"), cq.Var("y"), cq.Var("z"))}}
	bad, err := ucq.New("Ubad", u.Subs[0], free)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(context.Background(), bad, WithFallback(FallbackRefuse)); err == nil {
		t.Fatal("uncovered union must refuse under FallbackRefuse semantics")
	}
	st = eng.CacheStats()
	if _, err := eng.Query(context.Background(), bad, WithFallback(FallbackRefuse)); err == nil {
		t.Fatal("uncovered union must refuse again")
	}
	if got := eng.CacheStats(); got.Hits != st.Hits+1 {
		t.Fatalf("the refusal verdict must be served from cache: %+v -> %+v", st, got)
	}
}

// TestExplainServedFromPlanCache pins the satellite fix for Explain
// re-running IsCovered/CheckBounded before Plan: on a hot query, Explain
// costs one cache hit and zero misses.
func TestExplainServedFromPlanCache(t *testing.T) {
	eng := accidentsEngine(t, Options{}, 2)
	q := workload.Q0()
	if _, _, err := eng.Plan(q); err != nil {
		t.Fatal(err)
	}
	base := eng.CacheStats()
	out, err := eng.Explain(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Misses != base.Misses || st.Hits != base.Hits+1 {
		t.Fatalf("Explain after Plan must be pure cache: %+v -> %+v", base, st)
	}
	for _, want := range []string{"covered: true", "BEP verdict: bounded", "plan Q0", "access bound"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain missing %q:\n%s", want, out)
		}
	}

	// The not-bounded verdict is cached and explained from cache too.
	q51, _ := workload.Q51()
	if _, _, err := eng.Plan(q51); err == nil {
		t.Fatal("Q51 must not be bounded")
	}
	base = eng.CacheStats()
	out, err = eng.Explain(q51, []string{"date", "xm"})
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Misses != base.Misses {
		t.Fatalf("Explain of a cached refusal must not re-plan: %+v -> %+v", base, st)
	}
	if !strings.Contains(out, "unknown") {
		t.Fatalf("Q51 verdict missing:\n%s", out)
	}
}

// TestQueryStream pins the streaming contract: rows arrive through Seq
// without Rows being materialized, identical to the materialized answer;
// stats land after the drain; early breaks are clean; the iterator is
// single-use.
func TestQueryStream(t *testing.T) {
	eng := newAccidentEngine(t)
	q := workload.Q0()
	want, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	res, err := eng.Query(context.Background(), q, WithStream())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != nil {
		t.Fatal("streamed result must not materialize Rows")
	}
	var got []data.Tuple
	for row := range res.Seq() {
		got = append(got, row)
	}
	if res.Err() != nil {
		t.Fatalf("stream error: %v", res.Err())
	}
	if !sameTuples(got, want.Rows) {
		t.Fatal("streamed rows must match the materialized answer, in order")
	}
	if res.Stats.Fetched != want.Stats.Fetched || res.Stats.FetchKeys != want.Stats.FetchKeys {
		t.Fatalf("streamed stats %+v, want %+v", res.Stats, want.Stats)
	}
	// Single-use: a second drain yields nothing.
	for range res.Seq() {
		t.Fatal("stream iterator must be single-use")
	}

	// Early break: stop after one row, no error.
	res2, err := eng.Query(context.Background(), q, WithStream())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range res2.Seq() {
		n++
		break
	}
	if n != 1 || res2.Err() != nil {
		t.Fatalf("early break: n=%d err=%v", n, res2.Err())
	}

	// The scan path streams too (buffered internally, deferred).
	q51, _ := workload.Q51()
	wantScan, err := eng.Query(context.Background(), q51)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := eng.Query(context.Background(), q51, WithStream())
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for row := range res3.Seq() {
		got = append(got, row)
	}
	if res3.Err() != nil || !sameTuples(got, wantScan.Rows) {
		t.Fatalf("streamed scan diverges (err=%v)", res3.Err())
	}
	if res3.Stats.Scanned != wantScan.Stats.Scanned {
		t.Fatalf("streamed scan stats %+v, want %+v", res3.Stats, wantScan.Stats)
	}
}

// TestWithDeadline pins deadline semantics: an expired deadline stops the
// request with context.DeadlineExceeded before data is served.
func TestWithDeadline(t *testing.T) {
	eng := newAccidentEngine(t)
	_, err := eng.Query(context.Background(), workload.Q0(),
		WithDeadline(time.Now().Add(-time.Second)))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	// A generous deadline serves normally.
	if _, err := eng.Query(context.Background(), workload.Q0(),
		WithDeadline(time.Now().Add(time.Minute))); err != nil {
		t.Fatal(err)
	}
}

// TestQueryServesPosFO routes an ∃FO⁺ formula through the unified entry
// point: normalization to a UCQ happens inside Query.
func TestQueryServesPosFO(t *testing.T) {
	eng, u := example35Engine(t)
	f := &posfo.Query{
		Label: "F", Free: []string{"y"},
		Body: posfo.Or{Fs: []posfo.Formula{
			posfo.And{Fs: []posfo.Formula{
				posfo.Atom{Rel: "Rp", Args: []cq.Term{cq.Var("x"), cq.Var("y"), cq.Var("z")}},
				posfo.Eq{L: cq.Var("x"), R: cq.Const(iv(1))},
			}},
		}},
	}
	res, err := eng.Query(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	// Rp(1, y, z) holds for y ∈ {10, 20} in the Example 3.5 instance.
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	_ = u
}

// TestScanStreamObservesDeadline is the regression test for the
// streamed-scan deadline hole: the conventional evaluator honored ctx
// while COMPUTING the answer, but the emission loop that feeds the
// buffered rows to a slow consumer never looked at it again — so a
// request whose deadline struck mid-emission streamed every row and
// reported no error (bequery -stream then exited 0 on a truncated-
// in-time pipeline). The emit loop must cut the stream and surface the
// deadline through Result.Err.
func TestScanStreamObservesDeadline(t *testing.T) {
	eng := socialEngine(t, 100, Options{})
	allPairs := workload.PatternQueries(1)[4]
	if allPairs.Label != "allPairs" {
		t.Fatal("workload pattern order changed")
	}
	// Reference: the full scan answer, materialized.
	full, err := eng.Query(context.Background(), allPairs)
	if err != nil {
		t.Fatal(err)
	}
	if full.Mode != ViaFullScan {
		t.Fatalf("allPairs must fall back to a scan, got %v", full.Mode)
	}
	total := len(full.Rows)
	if total < 1024 {
		t.Fatalf("fixture too small to cross the emit stride: %d rows", total)
	}

	// Evaluation finishes well inside the deadline; the slow consumer
	// (0.5ms/row, like a congested network write) makes emission cross
	// it after ~120 rows, so the first stride check must cut the stream.
	res, err := eng.Query(context.Background(), allPairs,
		WithStream(), WithDeadline(time.Now().Add(60*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	consumed := 0
	for range res.Seq() {
		consumed++
		time.Sleep(500 * time.Microsecond)
	}
	if res.Err() == nil {
		t.Fatalf("stream consumed %d/%d rows past the deadline with a nil Err", consumed, total)
	}
	if !errors.Is(res.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want a DeadlineExceeded", res.Err())
	}
	if consumed >= total {
		t.Fatalf("deadline did not cut the stream: %d of %d rows emitted", consumed, total)
	}
}
