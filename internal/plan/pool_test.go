package plan

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/cover"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/index"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workload"
)

// Tests of the pooled execution state (statePool): concurrent runs of
// shared plans, in every way a run can end, never see one another's
// storage; answers handed out survive later runs; and state that grew
// past the retention bound is trimmed instead of pooled.

// builtPlan plans q the way the engine does: cover check, then Build.
func builtPlan(t testing.TB, q *cq.CQ, a *access.Schema, s *schema.Schema) *Plan {
	t.Helper()
	res, err := cover.Check(q, a, s, cover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Fatalf("%s must be covered:\n%s", q.Label, res.Explain())
	}
	p, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// q0At is Q0 with its district and date constants replaced: the shape of
// the serving benchmark's point queries.
func q0At(district, date string) *cq.CQ {
	q := workload.Q0()
	q.Label = "Q0@" + district + "@" + date
	q.Atoms[0] = cq.NewAtom("Accident", cq.Var("aid"), cq.Const(sv(district)), cq.Const(sv(date)))
	return q
}

// accidentsSource generates the accidents workload at a fixed seed and
// indexes it.
func accidentsSource(t testing.TB, days int, seed int64) (*workload.Accidents, Source) {
	t.Helper()
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: days, AccidentsPerDay: 40, MaxVehicles: 6, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, viols, err := access.BuildIndexed(acc.Access, acc.Instance)
	if err != nil || len(viols) > 0 {
		t.Fatalf("BuildIndexed: %v %v", viols, err)
	}
	return acc, NewSource(ix)
}

// path2Plan plans the social workload's two-hop walk and indexes a
// generated instance for it.
func path2Plan(t testing.TB) (*Plan, Source) {
	t.Helper()
	soc, err := workload.GenerateSocial(workload.SocialConfig{People: 400, MaxFriends: 15, MaxLikes: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix, _, err := access.BuildIndexed(soc.Access, soc.Instance)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range workload.PatternQueries(7) {
		if q.Label == "path2" {
			return builtPlan(t, q, soc.Access, soc.Schema), NewSource(ix)
		}
	}
	t.Fatal("the pattern queries have no path2")
	return nil, nil
}

// q0UnionPlan plans the union of two Q0-shaped point queries: the UCQ
// splice of two bounded plans.
func q0UnionPlan(t testing.TB, acc *workload.Accidents) *Plan {
	t.Helper()
	ures, err := cover.CheckUCQ([]*cq.CQ{
		q0At("Queen's Park", workload.DateName(0)), q0At("Soho", workload.DateName(3)),
	}, acc.Access, acc.Schema, cover.Options{})
	if err != nil || !ures.Covered {
		t.Fatalf("UCQ must be covered: %v", err)
	}
	p, err := BuildUCQ(ures)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// render encodes rows injectively, so two answers compare byte for byte.
func render(rows []data.Tuple) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%q\n", r.Key())
	}
	return b.String()
}

// cancelingSource cancels its run's context at the after-th key lookup:
// a cancellation that lands mid-plan, inside a fetch step.
type cancelingSource struct {
	Source
	after  int
	cancel context.CancelFunc
}

func (s *cancelingSource) FetcherFor(c access.Constraint) Fetcher {
	if f := s.Source.FetcherFor(c); f != nil {
		return cancelingFetcher{f, s}
	}
	return nil
}

type cancelingFetcher struct {
	Fetcher
	s *cancelingSource
}

func (f cancelingFetcher) FetchBytes(k []byte) index.Bucket {
	if f.s.after--; f.s.after == 0 {
		f.s.cancel()
	}
	return f.Fetcher.FetchBytes(k)
}

// Ways a soak run consumes its plan.
const (
	modeMaterialised = iota
	modeStreamed
	modeStopped
	modeCanceled
	numModes
)

// TestPoolSoakConcurrentModes runs cached Q0-shaped plans, path2 and a
// UCQ from several goroutines at once — materialised, fully streamed,
// stopped after k rows and canceled mid-plan — keeping every answer's rows
// as handed out (no copies) until all runs end, then compares each byte
// for byte with a reference taken before the goroutines started. A state
// returned to the pool while still in use, or a pooled table whose rows
// reached a consumer, shows up as a changed answer or as a race. Each
// worker also re-checks, after every run, the fully streamed answers it
// kept so far: a streamed run's final table is pooled, and the further
// runs of other shapes on the same goroutine must never clear or reuse
// the arena its rows live in.
func TestPoolSoakConcurrentModes(t *testing.T) {
	acc, accSrc := accidentsSource(t, 8, 1)
	path2, socSrc := path2Plan(t)

	type soakCase struct {
		p     *Plan
		src   Source
		rows  []string // rendered prefixes: rows[k] renders the first k rows
		stats ExecStats
	}
	cases := []*soakCase{
		{p: builtPlan(t, q0At("Queen's Park", workload.DateName(0)), acc.Access, acc.Schema), src: accSrc},
		{p: builtPlan(t, q0At("Soho", workload.DateName(1)), acc.Access, acc.Schema), src: accSrc},
		{p: builtPlan(t, q0At("Camden", workload.DateName(2)), acc.Access, acc.Schema), src: accSrc},
		{p: path2, src: socSrc},
		{p: q0UnionPlan(t, acc), src: accSrc},
	}
	for i, c := range cases {
		tab, st, err := ExecuteSource(context.Background(), c.p, c.src, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if tab.Len() == 0 {
			t.Fatalf("case %d (%s): empty reference answer", i, c.p.Label)
		}
		for k := 0; k <= tab.Len(); k++ {
			c.rows = append(c.rows, render(tab.Rows[:k]))
		}
		c.stats = *st
	}

	type answer struct {
		c, mode, k int
		rows       []data.Tuple
		stats      *ExecStats
		err        error
	}
	const workers, iters = 4, 150
	answers := make([][]answer, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				a := answer{c: (w + i) % len(cases), mode: (w + i/len(cases)) % numModes, k: 1 + i%3}
				c := cases[a.c]
				collect := func(row data.Tuple) bool {
					a.rows = append(a.rows, row)
					return a.mode != modeStopped || len(a.rows) < a.k
				}
				ctx := context.Background()
				switch a.mode {
				case modeMaterialised:
					var tab *Table
					if tab, a.stats, a.err = ExecuteSource(ctx, c.p, c.src, ExecOptions{}); tab != nil {
						a.rows = tab.Rows
					}
				case modeStreamed, modeStopped:
					a.stats, a.err = ExecuteStreamSource(ctx, c.p, c.src, collect)
				case modeCanceled:
					ctx, cancel := context.WithCancel(ctx)
					src := &cancelingSource{Source: c.src, after: a.k, cancel: cancel}
					if i%2 == 0 {
						_, a.stats, a.err = ExecuteSource(ctx, c.p, src, ExecOptions{})
					} else {
						a.stats, a.err = ExecuteStreamSource(ctx, c.p, src, collect)
					}
					cancel()
				}
				answers[w] = append(answers[w], a)
				for j, kept := range answers[w] {
					full := cases[kept.c].rows[len(cases[kept.c].rows)-1]
					if kept.mode == modeStreamed && kept.err == nil && render(kept.rows) != full {
						t.Errorf("worker %d: streamed run %d (%s) changed by run %d:\n%s\nwant\n%s",
							w, j, cases[kept.c].p.Label, i, render(kept.rows), full)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	for w := range answers {
		for i, a := range answers[w] {
			c := cases[a.c]
			where := fmt.Sprintf("worker %d run %d (%s, mode %d)", w, i, c.p.Label, a.mode)
			switch a.mode {
			case modeCanceled:
				if !errors.Is(a.err, context.Canceled) {
					t.Errorf("%s: err = %v, want context.Canceled", where, a.err)
				}
			case modeStopped:
				k := min(a.k, len(c.rows)-1)
				if a.err != nil || render(a.rows) != c.rows[k] {
					t.Errorf("%s: stopped after %d rows: err %v, rows\n%s\nwant\n%s", where, k, a.err, render(a.rows), c.rows[k])
				}
			default:
				if a.err != nil || render(a.rows) != c.rows[len(c.rows)-1] || *a.stats != c.stats {
					t.Errorf("%s: err %v, stats %+v (want %+v), rows\n%s\nwant\n%s",
						where, a.err, a.stats, c.stats, render(a.rows), c.rows[len(c.rows)-1])
				}
			}
		}
	}
}

// TestAnswersSurviveLaterRuns pins the escape rule: the table ExecuteSource
// returns and the rows ExecuteStreamSource yielded stay unchanged through
// 100 further executions of the same plan. The later runs read a second
// instance with different answers, so an answer whose storage a later
// run reused would read differently.
func TestAnswersSurviveLaterRuns(t *testing.T) {
	acc, src := accidentsSource(t, 8, 1)
	_, other := accidentsSource(t, 8, 2)
	p := builtPlan(t, workload.Q0(), acc.Access, acc.Schema)
	ctx := context.Background()

	tab, _, err := ExecuteSource(ctx, p, src, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantCols, want := strings.Join(tab.Cols, ","), render(tab.Rows)
	var streamed []data.Tuple
	if _, err := ExecuteStreamSource(ctx, p, src, func(row data.Tuple) bool {
		streamed = append(streamed, row)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if render(streamed) != want {
		t.Fatal("streamed answer differs from the materialised one")
	}

	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			later, _, err := ExecuteSource(ctx, p, other, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if render(later.Rows) == want {
				t.Fatal("fixture: both instances give the same answer, the check has no teeth")
			}
		} else if _, err := ExecuteStreamSource(ctx, p, other, func(data.Tuple) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	if got := strings.Join(tab.Cols, ","); got != wantCols {
		t.Errorf("returned table's columns changed: %s, want %s", got, wantCols)
	}
	if got := render(tab.Rows); got != want {
		t.Errorf("returned table's rows changed:\n%s\nwant\n%s", got, want)
	}
	if got := render(streamed); got != want {
		t.Errorf("streamed rows changed:\n%s\nwant\n%s", got, want)
	}
}

// TestPoolTrimsOversizedState runs a plan whose intermediates and fetch
// key set all exceed retainCells, and checks that trimming
// the state drops them — keeping the small table, emptied — and holds no
// reference into the run. The union reads both fetches, so neither is
// fused into the projection after it and both tables fill.
func TestPoolTrimsOversizedState(t *testing.T) {
	const n = retainCells + 904
	sc := schema.MustNew(schema.MustRelation("R", "A", "B", "C"))
	byA := access.NewConstraint("R", attrs("A"), attrs("B", "C"), n)
	byC := access.NewConstraint("R", attrs("C"), attrs("A"), 1)
	d := data.NewInstance(sc)
	for i := int64(0); i < n; i++ {
		d.MustInsert("R", iv(0), iv(i%7), iv(i))
	}
	ix, viols, err := access.BuildIndexed(access.NewSchema(byA, byC), d)
	if err != nil || len(viols) > 0 {
		t.Fatalf("BuildIndexed: %v %v", viols, err)
	}
	// T1, T2 and T3 hold n rows each, the second fetch dedups n
	// distinct keys, and T4 = T1 ∪ T3 holds 2n-1 rows: (0, i%7, i) and
	// (0, i, 0) meet only at i = 0.
	p := &Plan{Label: "wide", Steps: []Op{
		lit("a", iv(0)),
		FetchOp{Input: 0, Constraint: byA, XCols: []string{"a"}, YOut: []string{"b", "c"}},
		ProjectOp{Input: 1, Cols: []string{"a", "c"}},
		FetchOp{Input: 2, Constraint: byC, XCols: []string{"c"}, YOut: []string{"a2"}},
		UnionOp{L: 1, R: 3},
		ProjectOp{Input: 3, Cols: []string{"a2"}},
	}}

	st := new(execState)
	for run := 0; run < 2; run++ {
		tab, stats, err := st.run(context.Background(), p, NewSource(ix), nil)
		if err != nil {
			t.Fatal(err)
		}
		if tab.Len() != 1 || stats.MaxIntermediate != 2*n-1 {
			t.Fatalf("run %d: %d answer rows, max intermediate %d; want 1 and %d", run, tab.Len(), stats.MaxIntermediate, 2*n-1)
		}
		st.trim()
		kept := st.tables[0]
		if kept == nil {
			t.Fatal("the one-row table was dropped")
		}
		if kept.Len() != 0 || kept.index.n != 0 || len(kept.arena) != 0 {
			t.Errorf("kept table not emptied: %d rows, %d indexed, %d cells", kept.Len(), kept.index.n, len(kept.arena))
		}
		for _, v := range kept.arena[:cap(kept.arena)] {
			if v != (value.Value{}) {
				t.Fatalf("kept table's arena still holds %v", v)
			}
		}
		for i, tb := range st.tables[1:] {
			if tb != nil {
				t.Errorf("T%d (%d rows or more, at most %d cells) was kept", i+1, n, retainCells)
			}
		}
		if st.fetch.dedup.index.slots != nil {
			t.Error("the fetch's key dedup index was kept")
		}
		if st.fetch.keyBuf != nil || st.fetch.keyEnds != nil || st.fetch.keys != nil || st.fetch.keyOf != nil || st.fetch.buckets != nil {
			t.Error("the fetch's key set scratch was kept")
		}
		if len(st.results) != 0 || st.fetch.in != nil || st.fetch.fetch != nil {
			t.Error("the trimmed state still references the run")
		}
	}
}
