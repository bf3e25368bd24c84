package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{ID: "T", Title: "demo", Header: []string{"a", "bb"}}
	tb.AddRow(1, "x")
	tb.AddRow("long-cell", 3.14159)
	tb.Notes = append(tb.Notes, "a note")
	out := tb.Render()
	for _, want := range []string{"== T: demo ==", "a", "bb", "long-cell", "3.14", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func cell(t *testing.T, tb *Table, row, col int) string {
	t.Helper()
	if row >= len(tb.Rows) || col >= len(tb.Rows[row]) {
		t.Fatalf("table %s has no cell (%d,%d):\n%s", tb.ID, row, col, tb.Render())
	}
	return tb.Rows[row][col]
}

func cellInt(t *testing.T, tb *Table, row, col int) int64 {
	t.Helper()
	n, err := strconv.ParseInt(cell(t, tb, row, col), 10, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) of %s is not an int: %v", row, col, tb.ID, err)
	}
	return n
}

// E1's defining shape: fetched stays flat while scanned grows with |D|.
func TestE1BoundedAccessFlat(t *testing.T) {
	tb, err := E1ScaleSweep([]int{3, 12, 48})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	f0 := cellInt(t, tb, 0, 1)
	f2 := cellInt(t, tb, 2, 1)
	if f0 != f2 {
		t.Errorf("fetched must be flat across scales: %d vs %d", f0, f2)
	}
	s0 := cellInt(t, tb, 0, 2)
	s2 := cellInt(t, tb, 2, 2)
	if s2 <= s0 {
		t.Errorf("baseline scan must grow with |D|: %d vs %d", s0, s2)
	}
	// Static bound dominates actual fetches.
	if cellInt(t, tb, 2, 4) < f2 {
		t.Errorf("static bound %d below actual %d", cellInt(t, tb, 2, 4), f2)
	}
}

func TestE2Polynomial(t *testing.T) {
	tb, err := E2CQPScaling([]int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Both chain queries are covered.
	for i := range tb.Rows {
		if cell(t, tb, i, 2) != "true" {
			t.Errorf("chain query %d should be covered", i)
		}
	}
}

func TestE3DominanceCovered(t *testing.T) {
	tb, err := E3UCQCoverage([]int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tb.Rows {
		if cell(t, tb, i, 2) != "true" {
			t.Errorf("row %d: UCQ should remain covered (dominance holds)", i)
		}
	}
}

// E4's shape: a large majority of the anchored workload is bounded under
// discovered constraints, and more than under the four ψ constraints.
func TestE4CoverageMajority(t *testing.T) {
	tb, err := E4CoverageRate(60, 700)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	bPsi := cellInt(t, tb, 0, 3)
	bDisc := cellInt(t, tb, 1, 3)
	if bDisc < bPsi {
		t.Errorf("discovered constraints should bound at least as many queries: %d vs %d", bDisc, bPsi)
	}
	if bDisc*2 < 60 {
		t.Errorf("discovered constraints should bound a majority of the anchored workload: %d/60", bDisc)
	}
}

func TestE6PatternsMixAndGap(t *testing.T) {
	tb, err := E6GraphPatterns(600)
	if err != nil {
		t.Fatal(err)
	}
	coveredRows, uncovered := 0, 0
	for i := range tb.Rows {
		if cell(t, tb, i, 1) == "true" {
			coveredRows++
			fetched := cellInt(t, tb, i, 2)
			scanned := cellInt(t, tb, i, 3)
			if fetched >= scanned {
				t.Errorf("pattern %s: fetched %d not below scanned %d", cell(t, tb, i, 0), fetched, scanned)
			}
		} else {
			uncovered++
		}
	}
	if coveredRows < 4 || uncovered < 2 {
		t.Errorf("expected ≥4 covered and ≥2 uncovered patterns: %d/%d", coveredRows, uncovered)
	}
}

func TestE7EnvelopeBoundsHold(t *testing.T) {
	tb, err := E7Envelopes()
	if err != nil {
		t.Fatal(err)
	}
	for i := range tb.Rows {
		if got := cell(t, tb, i, 4); got != "true" && got != "-" {
			t.Errorf("row %q: bound violated or case failed:\n%s", cell(t, tb, i, 0), tb.Render())
		}
	}
}

func TestE8QSPShapes(t *testing.T) {
	tb, err := E8QSP([]int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: Example 5.1 finds [date].
	if cell(t, tb, 0, 2) != "true" || !strings.Contains(cell(t, tb, 0, 3), "date") {
		t.Errorf("Example 5.1 row wrong: %v", tb.Rows[0])
	}
	// Exact tries grow with n; greedy finds full-size solutions too.
	for i := 1; i < len(tb.Rows); i++ {
		if cell(t, tb, i, 2) != "true" {
			t.Errorf("MSC row %d should find a solution", i)
		}
	}
}

func TestE9SublinearGrowth(t *testing.T) {
	tb, err := E9GeneralConstraints([]int{1 << 8, 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	f0 := cellInt(t, tb, 0, 2)
	f1 := cellInt(t, tb, 1, 2)
	s1 := cellInt(t, tb, 1, 3)
	if f1 < f0 {
		t.Errorf("fetched should grow (log bound): %d then %d", f0, f1)
	}
	if f1*100 > s1 {
		t.Errorf("fetched %d should be far below scanned %d", f1, s1)
	}
}

func TestE10AllVerdictsAgree(t *testing.T) {
	tb, err := E10PaperExamples()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 5 {
		t.Fatalf("expected ≥5 fixtures, got %d", len(tb.Rows))
	}
	for i := range tb.Rows {
		if cell(t, tb, i, 3) != "true" {
			t.Errorf("fixture %q disagrees with the paper:\n%s", cell(t, tb, i, 0), tb.Render())
		}
	}
}
