package plan

import (
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/value"
)

// opsIndexed builds a tiny indexed instance for exercising raw operators.
func opsIndexed(t *testing.T) *access.Indexed {
	t.Helper()
	d := accidentInstance(t, 1, 2, 1)
	ix, _, err := access.BuildIndexed(psi(), d)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func runPlan(t *testing.T, ix *access.Indexed, steps ...Op) *Table {
	t.Helper()
	p := &Plan{Label: "ops", Steps: steps}
	tbl, _, err := Execute(p, ix)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func mustFail(t *testing.T, ix *access.Indexed, why string, steps ...Op) {
	t.Helper()
	p := &Plan{Label: "ops", Steps: steps}
	if _, _, err := Execute(p, ix); err == nil {
		t.Errorf("expected failure: %s", why)
	}
}

// lit is a one-column literal holding one row per value.
func lit(col string, vs ...value.Value) ConstOp {
	op := ConstOp{Cols: []string{col}}
	for _, v := range vs {
		op.Rows = append(op.Rows, []value.Value{v})
	}
	return op
}

// unit is the literal with no columns and one row, {()}.
var unit = ConstOp{Rows: [][]value.Value{nil}}

func c(col string, v int64) Op { return lit(col, value.NewInt(v)) }

func TestLiteralLeaf(t *testing.T) {
	ix := opsIndexed(t)
	pair := ConstOp{Cols: []string{"a", "b"}, Rows: [][]value.Value{
		{iv(1), value.NewString("x")}, {iv(2), value.NewString("y")}, {iv(1), value.NewString("x")},
	}}
	for _, tc := range []struct {
		op   ConstOp
		text string
		rows int
	}{
		{unit, "{()}", 1},
		{ConstOp{Cols: []string{"a", "b"}}, "∅(a, b)", 0},
		{lit("a", iv(7)), "{(7)} as (a)", 1},
		// A repeated row collapses (set semantics).
		{pair, `{(1, "x"), (2, "y"), (1, "x")} as (a, b)`, 2},
	} {
		if got := tc.op.String(); got != tc.text {
			t.Errorf("literal renders %q, want %q", got, tc.text)
		}
		if tbl := runPlan(t, ix, tc.op); tbl.Len() != tc.rows || len(tbl.Cols) != len(tc.op.Cols) {
			t.Errorf("%s: %d rows over %v, want %d rows", tc.text, tbl.Len(), tbl.Cols, tc.rows)
		}
		b, err := AccessBound(&Plan{Steps: []Op{tc.op}}, 0)
		if err != nil || b.Output != int64(len(tc.op.Rows)) {
			t.Errorf("%s: bound %+v, %v; want its row count %d", tc.text, b, err, len(tc.op.Rows))
		}
	}
	mustFail(t, ix, "literal row arity", ConstOp{Cols: []string{"a", "b"}, Rows: [][]value.Value{{iv(1)}}})
}

func TestUnionOpSemantics(t *testing.T) {
	ix := opsIndexed(t)
	tbl := runPlan(t, ix,
		c("a", 1),
		c("a", 2),
		UnionOp{L: 0, R: 1},
		UnionOp{L: 2, R: 0}, // duplicates collapse (set semantics)
	)
	if tbl.Len() != 2 {
		t.Errorf("union rows = %v", tbl.Rows)
	}
	mustFail(t, ix, "union arity mismatch",
		c("a", 1),
		ConstOp{Cols: []string{"a", "b"}, Rows: [][]value.Value{{iv(1), iv(2)}}},
		UnionOp{L: 0, R: 1},
	)
}

func TestFetchOpValidation(t *testing.T) {
	ix := opsIndexed(t)
	psi1 := psi().Constraints[0] // Accident(date -> aid, 610)
	// Wrong X column count.
	mustFail(t, ix, "fetch X arity",
		c("d", 1),
		FetchOp{Input: 0, Constraint: psi1, XCols: nil, YOut: []string{"aid"}},
	)
	// Wrong Y name count.
	mustFail(t, ix, "fetch Y arity",
		c("d", 1),
		FetchOp{Input: 0, Constraint: psi1, XCols: []string{"d"}, YOut: nil},
	)
	// Constraint without an index in the schema.
	foreign := access.NewConstraint("Accident",
		attrs("district"), attrs("aid"), 9)
	mustFail(t, ix, "fetch without index",
		c("d", 1),
		FetchOp{Input: 0, Constraint: foreign, XCols: []string{"d"}, YOut: []string{"aid"}},
	)
	// Fetch key missing from the index: empty result, not an error.
	tbl := runPlan(t, ix,
		lit("d", value.NewString("no-such-date")),
		FetchOp{Input: 0, Constraint: psi1, XCols: []string{"d"}, YOut: []string{"aid"}},
	)
	if tbl.Len() != 0 {
		t.Errorf("missing key should fetch nothing: %v", tbl.Rows)
	}
}

// TestFetchEquatedYColumns pins the σ that a fetch carries: a YOut that
// names an input column or an earlier YOut is an equality check, and the
// input's columns pass through ahead of the fresh Y columns.
func TestFetchEquatedYColumns(t *testing.T) {
	ix := opsIndexed(t)
	byDate := psi().Constraints[0] // Accident(date -> aid, 610)
	byAid := psi().Constraints[2]  // Accident(aid -> district date, 1)
	day := sv("1/5/2005")          // the fixture's one date, with aids 1 and 2
	for _, tc := range []struct {
		name          string
		in            ConstOp
		op            FetchOp
		cols          []string
		n             int
		rows          [][]value.Value // when pinned
		fetched, keys int64
	}{{
		// district must equal date: impossible.
		name: "two Y attributes equated",
		in:   lit("aid", iv(1)),
		op:   FetchOp{Constraint: byAid, XCols: []string{"aid"}, YOut: []string{"dist", "dist"}},
		cols: []string{"aid", "dist"}, n: 0, fetched: 1, keys: 1,
	}, {
		// dt is an input column outside X: the fetched date must equal it.
		name: "Y equated with an input column",
		in: ConstOp{Cols: []string{"aid", "dt"}, Rows: [][]value.Value{
			{iv(1), day}, {iv(2), sv("day-B")},
		}},
		op:   FetchOp{Constraint: byAid, XCols: []string{"aid"}, YOut: []string{"dist", "dt"}},
		cols: []string{"aid", "dt", "dist"}, n: 1, fetched: 2, keys: 2,
	}, {
		// Both aids of the day match, and the input row is kept once;
		// its other column passes through.
		name: "no new column",
		in: ConstOp{Cols: []string{"d", "k"}, Rows: [][]value.Value{
			{day, iv(1)}, {day, iv(2)}, {sv("no-such-date"), iv(3)},
		}},
		op:   FetchOp{Constraint: byDate, XCols: []string{"d"}, YOut: []string{""}},
		cols: []string{"d", "k"}, n: 2, rows: [][]value.Value{{day, iv(1)}, {day, iv(2)}},
		fetched: 2, keys: 2,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			tc.op.Input = 0
			got, stats, err := Execute(&Plan{Label: tc.name, Steps: []Op{tc.in, tc.op}}, ix)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Cols, tc.cols) || got.Len() != tc.n {
				t.Errorf("%d rows over %v, want %d over %v", got.Len(), got.Cols, tc.n, tc.cols)
			}
			if tc.rows != nil {
				want := make([]data.Tuple, len(tc.rows))
				for i, r := range tc.rows {
					want[i] = r
				}
				assertRows(t, tc.name, got.Rows, want)
			}
			if stats.Fetched != tc.fetched || stats.FetchKeys != tc.keys {
				t.Errorf("fetched %d over %d keys, want %d over %d", stats.Fetched, stats.FetchKeys, tc.fetched, tc.keys)
			}
		})
	}
}
