package plan

import (
	"context"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workload"
)

// Tests of the dedup rule (sink.distinct): a step appends its rows with
// no hash only when its shape proves they cannot repeat. The oracle
// re-inserts every such step's rows through Add over every plan the
// property generator draws; two hand-built fixtures pin the fetch arms
// where rows do repeat, and Q0 and path2 pin where the rule leaves the
// hash. They read the tables of a step-by-step run, where no fetch is
// fused and so every step's table holds its rows; the property suite
// checks that run against the fused one.

// runSteps executes p step by step through execOp on a fresh execution
// state, fusing nothing, and returns every step's table and the stats.
func runSteps(t *testing.T, p *Plan, src Source) ([]*Table, *ExecStats) {
	t.Helper()
	st := new(execState)
	stats := &ExecStats{}
	for i, op := range p.Steps {
		tab, err := st.execOp(context.Background(), op, new(Table), src, stats, nil, false)
		if err != nil {
			t.Fatalf("%s: step T%d: %v", p.Label, i, err)
		}
		st.results = append(st.results, tab)
		stats.MaxIntermediate = max(stats.MaxIntermediate, tab.Len())
	}
	return st.results, stats
}

// hashed reports whether a step's table was filled through the hash
// dedup: that indexes every row it keeps, while a step proven distinct
// leaves the index empty.
func hashed(tab *Table) bool { return tab.index.n > 0 }

// hashedSteps lists the steps of p, run on src, that deduplicated.
func hashedSteps(t *testing.T, p *Plan, src Source) []int {
	t.Helper()
	var out []int
	tabs, _ := runSteps(t, p, src)
	for i, tab := range tabs {
		if hashed(tab) {
			out = append(out, i)
		}
	}
	return out
}

// distinctCount is the number of distinct rows of rows.
func distinctCount(rows []data.Tuple) int {
	var set Table
	for _, row := range rows {
		set.Add(row)
	}
	return set.Len()
}

// TestSkippedDedupStepsHoldDistinctRows is the oracle for the rule: over
// every covered plan the property generator draws (the plans behind
// TestPlanOutputDigest), on every fixture instance, each step that
// skipped the hash holds no two equal rows.
func TestSkippedDedupStepsHoldDistinctRows(t *testing.T) {
	var skipped, dedup int
	forEachCoveredPlan(t, 10_000, func(fx *propFixture, qs []*cq.CQ, p *Plan, _ func([]*cq.CQ) (*Plan, error)) {
		for i, ix := range fx.ixs {
			tabs, _ := runSteps(t, p, NewSource(ix))
			for s, tab := range tabs {
				switch {
				case hashed(tab):
					dedup++
				case tab.Len() > 1:
					skipped++
					if n := distinctCount(tab.Rows); n != tab.Len() {
						t.Fatalf("%v on %s #%d: T%d = %s skipped the hash but holds %d rows, %d distinct\nplan:\n%s",
							qs, fx.name, i, s, p.Steps[s], tab.Len(), n, p)
					}
				}
			}
		}
	})
	t.Logf("%d step runs of two or more rows skipped the hash, %d deduplicated", skipped, dedup)
	if skipped == 0 || dedup == 0 {
		t.Fatal("the generator must exercise both paths")
	}
}

// TestFetchDropsYOfManyProjectionsDedups is a verification semijoin that
// drops a Y attribute of an N > 1 constraint: R(A → B C, 8) with B
// equated with the input's b and C dropped. Key 0's bucket holds two
// projections with B = 1, so the step emits the input row twice and must
// keep it once.
func TestFetchDropsYOfManyProjectionsDedups(t *testing.T) {
	sc := schema.MustNew(schema.MustRelation("R", "A", "B", "C"))
	c := access.NewConstraint("R", attrs("A"), attrs("B", "C"), 8)
	d := data.NewInstance(sc)
	for _, r := range [][3]int64{{0, 1, 10}, {0, 1, 11}, {0, 2, 12}} {
		d.MustInsert("R", iv(r[0]), iv(r[1]), iv(r[2]))
	}
	ix, viols, err := access.BuildIndexed(access.NewSchema(c), d)
	if err != nil || len(viols) > 0 {
		t.Fatalf("BuildIndexed: %v %v", viols, err)
	}
	p := &Plan{Label: "semijoin", Steps: []Op{
		ConstOp{Cols: []string{"a", "b"}, Rows: [][]value.Value{{iv(0), iv(1)}}},
		FetchOp{Input: 0, Constraint: c, XCols: []string{"a"}, YOut: []string{"b", ""}},
	}}
	checkOneRowAnswer(t, p, NewSource(ix), data.Tuple{iv(0), iv(1)}, ExecStats{Fetched: 3, FetchKeys: 1, MaxIntermediate: 1})
}

// TestFetchOnViolatedNDedups runs a fetch that drops the Y of a declared
// N = 1 constraint over an instance violating it: BuildIndexed returns
// the index beside its violations, and Execute accepts it. Key 0's bucket
// holds two projections, so the step emits its input row twice; the rule
// reads that off the bucket, not the declared N, and keeps the row once.
func TestFetchOnViolatedNDedups(t *testing.T) {
	sc := schema.MustNew(schema.MustRelation("R", "A", "B"))
	c := access.NewConstraint("R", attrs("A"), attrs("B"), 1)
	d := data.NewInstance(sc)
	d.MustInsert("R", iv(0), iv(1))
	d.MustInsert("R", iv(0), iv(2))
	ix, viols, err := access.BuildIndexed(access.NewSchema(c), d)
	if err != nil || len(viols) == 0 {
		t.Fatalf("fixture: the instance must violate %s: %v %v", c, viols, err)
	}
	p := &Plan{Label: "violated", Steps: []Op{
		lit("a", iv(0)),
		FetchOp{Input: 0, Constraint: c, XCols: []string{"a"}, YOut: []string{""}},
	}}
	checkOneRowAnswer(t, p, NewSource(ix), data.Tuple{iv(0)}, ExecStats{Fetched: 2, FetchKeys: 1, MaxIntermediate: 1})
}

// checkOneRowAnswer asserts that p answers exactly want, once, with
// stats wantStats, materialised and streamed.
func checkOneRowAnswer(t *testing.T, p *Plan, src Source, want data.Tuple, wantStats ExecStats) {
	t.Helper()
	ctx := context.Background()
	tab, stats, err := ExecuteSource(ctx, p, src, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, "materialised", tab.Rows, []data.Tuple{want})
	if *stats != wantStats {
		t.Fatalf("stats %+v, want %+v", *stats, wantStats)
	}
	var streamed []data.Tuple
	if _, err := ExecuteStreamSource(ctx, p, src, func(row data.Tuple) bool {
		streamed = append(streamed, row)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	assertRows(t, "streamed", streamed, []data.Tuple{want})
	if got := hashedSteps(t, p, src); !slices.Equal(got, []int{1}) {
		t.Fatalf("steps %v deduplicated, want the fetch T1 alone", got)
	}
}

// TestDedupOnlyWhereRowsCanRepeat pins where the rule leaves the hash on
// the served query shapes: Q0's four fetches keep every Y attribute or
// fetch through an N = 1 constraint, so only its final projection π[xa],
// which drops columns, deduplicates; path2's two fetches keep their Y, so
// only π[g] does.
func TestDedupOnlyWhereRowsCanRepeat(t *testing.T) {
	acc, accSrc := accidentsSource(t, 8, 1)
	path2, socSrc := path2Plan(t)
	for _, c := range []struct {
		p    *Plan
		src  Source
		want []int
	}{
		{builtPlan(t, workload.Q0(), acc.Access, acc.Schema), accSrc, []int{5}},
		{path2, socSrc, []int{3}},
	} {
		if got := hashedSteps(t, c.p, c.src); !slices.Equal(got, c.want) {
			t.Errorf("%s: steps %v deduplicated, want %v\n%s", c.p.Label, got, c.want, c.p)
		}
		// An empty table reads as unhashed whichever path filled it.
		tabs, _ := runSteps(t, c.p, c.src)
		for i, tab := range tabs {
			if tab.Len() == 0 {
				t.Errorf("%s: fixture: T%d is empty", c.p.Label, i)
			}
		}
	}
}
