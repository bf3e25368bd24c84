package plan

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/schema"
)

// wideRows is the size of the fixture's one bucket: past two cancel
// strides, and a multiple of seven (the number of distinct B values).
const wideRows = 2*cancelStride + 90

// finalStepFixture is an indexed R(A -> B, C) whose one bucket (A = 0)
// holds wideRows rows over only seven distinct B values, so every
// operator below sees a large input that collapses under projection —
// duplicates reach every sink.
func finalStepFixture(t *testing.T) (*access.Indexed, access.Constraint) {
	t.Helper()
	sc := schema.MustNew(schema.MustRelation("R", "A", "B", "C"))
	c := access.NewConstraint("R", attrs("A"), attrs("B", "C"), wideRows)
	d := data.NewInstance(sc)
	for i := int64(0); i < wideRows; i++ {
		d.MustInsert("R", iv(0), iv(i%7), iv(i))
	}
	ix, viols, err := access.BuildIndexed(access.NewSchema(c), d)
	if err != nil || len(viols) > 0 {
		t.Fatalf("BuildIndexed: %v %v", viols, err)
	}
	return ix, c
}

// TestEveryOperatorAsFinalStep runs each operator kind as the LAST step
// of a plan — the only step whose sink differs between the two modes —
// and pins the executor's one contract: streaming yields exactly the
// materialized rows in order, a consumer that stops after n rows sees
// exactly the n-row prefix and no error, and every operator that loops
// observes its context, whichever sink it emits into.
func TestEveryOperatorAsFinalStep(t *testing.T) {
	ix, c := finalStepFixture(t)
	src := NewSource(ix)
	// T0 = {0}; T1 = the wide bucket (a, b, c).
	base := []Op{
		lit("a", iv(0)),
		FetchOp{Input: 0, Constraint: c, XCols: []string{"a"}, YOut: []string{"b", "c"}},
	}
	cases := []struct {
		name  string
		steps []Op // appended to base; the last one is under test
		rows  int
		loops bool // the operator iterates input rows, so it must observe ctx itself
	}{
		// The three shapes of the one literal leaf.
		{"unit", []Op{unit}, 1, false},
		{"const", []Op{lit("k", iv(9), iv(8))}, 2, false},
		{"empty", []Op{ConstOp{Cols: []string{"k"}}}, 0, false},
		// wideRows input rows carrying ONE distinct key: one lookup. B is
		// equated with the input's b and C dropped, so the fetch binds no
		// new column and keeps each input row once, however many of the
		// bucket's rows match it.
		{"fetch", []Op{FetchOp{Input: 1, Constraint: c, XCols: []string{"a"}, YOut: []string{"b", ""}}}, wideRows, true},
		{"project", []Op{ProjectOp{Input: 1, Cols: []string{"b", "b"}, As: []string{"x", "y"}}}, 7, true},
		{"union", []Op{UnionOp{L: 1, R: 1}}, wideRows, true},
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Plan{Label: tc.name, Steps: append(append([]Op(nil), base...), tc.steps...)}
			last := len(p.Steps) - 1
			kind := tc.name
			if _, ok := p.Steps[last].(ConstOp); ok {
				kind = "const"
			}
			if got := opKind(p.Steps[last]); got != kind {
				t.Fatalf("final step is a %s", got)
			}
			ctx := context.Background()
			want, wantStats, err := ExecuteSource(ctx, p, src, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if want.Len() != tc.rows {
				t.Fatalf("materialized %d rows, want %d", want.Len(), tc.rows)
			}

			// Streamed rows == materialized rows, in order, same accounting.
			var got []data.Tuple
			stats, err := ExecuteStreamSource(ctx, p, src, func(row data.Tuple) bool {
				got = append(got, row)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			assertRows(t, "streamed", got, want.Rows)
			if *stats != *wantStats {
				t.Fatalf("streamed stats %+v, materialized %+v", *stats, *wantStats)
			}

			// A consumer that stops after n rows sees exactly the prefix.
			for _, n := range []int{1, tc.rows / 2, tc.rows} {
				if n < 1 || n > tc.rows {
					continue
				}
				var prefix []data.Tuple
				if _, err := ExecuteStreamSource(ctx, p, src, func(row data.Tuple) bool {
					prefix = append(prefix, row)
					return len(prefix) < n
				}); err != nil {
					t.Fatalf("stop after %d: %v", n, err)
				}
				assertRows(t, "prefix", prefix, want.Rows[:n])
			}

			// A canceled context stops the plan in both modes...
			if _, _, err := ExecuteSource(canceled, p, src, ExecOptions{}); !errors.Is(err, context.Canceled) {
				t.Fatalf("materialized under a canceled ctx: %v", err)
			}
			if _, err := ExecuteStreamSource(canceled, p, src, func(data.Tuple) bool { return true }); !errors.Is(err, context.Canceled) {
				t.Fatalf("streamed under a canceled ctx: %v", err)
			}
			// ...and not only between steps: the operator itself observes
			// it, whichever sink it emits into.
			if !tc.loops {
				return
			}
			st := new(execState)
			for i, op := range p.Steps[:last] {
				tab, err := st.execOp(ctx, op, st.table(i, last, false), src, &ExecStats{}, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				st.results = append(st.results, tab)
			}
			for mode, yield := range map[string]func(data.Tuple) bool{
				"materialized": nil,
				"streamed":     func(data.Tuple) bool { return true },
			} {
				if _, err := st.execOp(canceled, p.Steps[last], st.table(last, last, yield != nil), src, &ExecStats{}, yield, false); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s operator ignored its canceled ctx: %v", mode, err)
				}
			}
		})
	}
}

// TestFusedFetchStopsWithItsReader pins the fused fetch's loop, whose
// one key emits wideRows rows straight into the final projection: it
// observes its context every cancelStride rows it emits, not once per
// input row, and a consumer that stops stops the fetch, which then
// counts only the rows it emitted.
func TestFusedFetchStopsWithItsReader(t *testing.T) {
	ix, c := finalStepFixture(t)
	p := &Plan{Label: "fused", Steps: []Op{
		lit("a", iv(0)),
		FetchOp{Input: 0, Constraint: c, XCols: []string{"a"}, YOut: []string{"b", "c"}},
		ProjectOp{Input: 1, Cols: []string{"c"}},
	}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows := 0
	_, err := ExecuteStreamSource(ctx, p, NewSource(ix), func(data.Tuple) bool {
		rows++
		cancel()
		return true
	})
	if !errors.Is(err, context.Canceled) || rows != cancelStride {
		t.Fatalf("canceled at the first row: %d rows, err %v; want %d rows and context.Canceled", rows, err, cancelStride)
	}
	rows = 0
	stats, err := ExecuteStreamSource(context.Background(), p, NewSource(ix), func(data.Tuple) bool {
		rows++
		return rows < 3
	})
	if err != nil || rows != 3 || stats.MaxIntermediate != 3 {
		t.Fatalf("stopped at row 3: %d rows, err %v, max intermediate %d; want 3, nil, 3", rows, err, stats.MaxIntermediate)
	}
}

func assertRows(t *testing.T, what string, got, want []data.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestFetchReadsXFromWideInput pins what lets a built plan fetch straight
// from its accumulated table: a fetch over a wide input with repeated X
// values looks up the same distinct keys, in the same order, as the same
// fetch over π[X] of that input. So π[X ⧺ Y] of the wide fetch agrees with
// the fetch over π[X] in rows, their order, Fetched, FetchKeys and the
// static fetch bound.
func TestFetchReadsXFromWideInput(t *testing.T) {
	dup, ix := dupKeysPlan(t)
	last := len(dup.Steps) - 1
	fetch := dup.Steps[last].(FetchOp)
	if _, ok := dup.Steps[fetch.Input].(FetchOp); !ok || len(fetch.XCols) != 1 {
		t.Fatalf("fixture: the last step must fetch one X column over a fetch's output")
	}
	xy := append(slices.Clone(fetch.XCols), fetch.YOut...)
	wide := &Plan{Label: "wide", Steps: slices.Clone(dup.Steps)}
	wide.Steps = append(wide.Steps, ProjectOp{Input: last, Cols: xy})
	projected := &Plan{Label: "projected", Steps: slices.Clone(dup.Steps[:last])}
	projected.Steps = append(projected.Steps, ProjectOp{Input: fetch.Input, Cols: fetch.XCols})
	fetch.Input = last
	projected.Steps = append(projected.Steps, fetch)

	src := NewSource(ix)
	ctx := context.Background()
	got, gotStats, err := ExecuteSource(ctx, wide, src, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := ExecuteSource(ctx, projected, src, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gotStats.FetchKeys != 1+7 {
		t.Fatalf("fixture: want one key, then the 7 distinct B values, got %d keys", gotStats.FetchKeys)
	}
	assertRows(t, "π[X ⧺ Y] of the fetch over the wide input", got.Rows, want.Rows)
	if !slices.Equal(got.Cols, want.Cols) || gotStats.Fetched != wantStats.Fetched || gotStats.FetchKeys != wantStats.FetchKeys {
		t.Fatalf("wide input: cols %v, %+v; over π[X]: cols %v, %+v", got.Cols, *gotStats, want.Cols, *wantStats)
	}
	gb, err := AccessBound(wide, 0)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := AccessBound(projected, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gb.Fetched != wb.Fetched || gb.Output > wb.Output {
		t.Fatalf("wide input bound %v, over π[X] %v", gb, wb)
	}
}
