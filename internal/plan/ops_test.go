package plan

import (
	"testing"

	"repro/internal/access"
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
		ProductOp{L: 0, R: 0},
	)
}

func TestRenameAndProduct(t *testing.T) {
	ix := opsIndexed(t)
	tbl := runPlan(t, ix,
		c("a", 1),
		RenameOp{Input: 0, From: []string{"a"}, To: []string{"b"}},
		ProductOp{L: 0, R: 1}, // (a, b)
	)
	if len(tbl.Cols) != 2 || tbl.Cols[0] != "a" || tbl.Cols[1] != "b" {
		t.Errorf("cols = %v", tbl.Cols)
	}
	// Product with clashing column names must fail.
	mustFail(t, ix, "product duplicate column",
		c("a", 1),
		c("a", 2),
		ProductOp{L: 0, R: 1},
	)
	mustFail(t, ix, "rename of missing column",
		c("a", 1),
		RenameOp{Input: 0, From: []string{"zz"}, To: []string{"b"}},
	)
}

func TestSelectOpConditions(t *testing.T) {
	ix := opsIndexed(t)
	// Build (a, b) pairs {1,1} and {1,2}; select a = b keeps one.
	tbl := runPlan(t, ix,
		c("a", 1),
		lit("b", iv(1), iv(2)),
		ProductOp{L: 0, R: 1},
		SelectOp{Input: 2, Conds: []EqCond{{L: "a", R: "b"}}},
	)
	if tbl.Len() != 1 {
		t.Errorf("select rows = %v", tbl.Rows)
	}
	// A constant condition is a join with a literal row.
	tbl = runPlan(t, ix,
		lit("a", iv(1), iv(2)),
		c("a", 2),
		JoinOp{L: 0, R: 1},
	)
	if tbl.Len() != 1 || tbl.Rows[0][0] != value.NewInt(2) {
		t.Errorf("const select rows = %v", tbl.Rows)
	}
	mustFail(t, ix, "select on missing column",
		c("a", 1),
		SelectOp{Input: 0, Conds: []EqCond{{L: "zz", R: "a"}}},
	)
	mustFail(t, ix, "select against a missing column",
		c("a", 1),
		SelectOp{Input: 0, Conds: []EqCond{{L: "a", R: "zz"}}},
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

func TestFetchEquatedYColumns(t *testing.T) {
	ix := opsIndexed(t)
	psi3 := psi().Constraints[2] // Accident(aid -> district date, 1)
	// Fetch (district, date) but demand date equals the input column d:
	// reuse the X column name in YOut to force the equality check.
	tbl := runPlan(t, ix,
		lit("aid", value.NewInt(1)),
		FetchOp{Input: 0, Constraint: psi3, XCols: []string{"aid"},
			YOut: []string{"dist", "dist"}}, // district must equal date: impossible
	)
	if tbl.Len() != 0 {
		t.Errorf("district never equals date in the fixture: %v", tbl.Rows)
	}
}
