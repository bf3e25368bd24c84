package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"
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

// E11's defining shape: cached planning beats cold planning.
func TestE11CacheWins(t *testing.T) {
	tb, err := E11Concurrency(400)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d:\n%s", len(tb.Rows), tb.Render())
	}
	cold, err1 := strconv.ParseFloat(cell(t, tb, 0, 1), 64)
	hit, err2 := strconv.ParseFloat(cell(t, tb, 1, 1), 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("bad timing cells:\n%s", tb.Render())
	}
	if hit >= cold {
		t.Errorf("cached planning (%v µs) must beat cold synthesis (%v µs)", hit, cold)
	}
}

func TestE12ApplyBeatsReload(t *testing.T) {
	tb, err := E12LiveUpdates([]int{10}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d:\n%s", len(tb.Rows), tb.Render())
	}
	apply, err1 := strconv.ParseFloat(cell(t, tb, 0, 2), 64)
	reload, err2 := strconv.ParseFloat(cell(t, tb, 0, 3), 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("bad timing cells:\n%s", tb.Render())
	}
	if apply >= reload {
		t.Errorf("incremental apply (%v µs) should beat load+rebuild (%v µs) on small deltas", apply, reload)
	}
}

// E13's defining shape: every shard count returns the same answer rows
// as K=1 (the "same as K=1" column), for both workloads. Throughput
// ordering is hardware-dependent (single-core CI flattens it), so only
// result identity is asserted.
func TestE13ShardCountsAgree(t *testing.T) {
	tb, err := E13Sharding([]int{1, 2, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d:\n%s", len(tb.Rows), tb.Render())
	}
	for i := range tb.Rows {
		if cell(t, tb, i, 5) != "true" {
			t.Errorf("row %d: sharded rows differ from K=1:\n%s", i, tb.Render())
		}
	}
}

// E14's defining shape: the HTTP path answers the same rows as the
// in-process path (checked inside the driver, which errors otherwise),
// and both QPS figures are positive. The overhead ratio itself is
// hardware-dependent, so it is reported, not asserted.
func TestE14WirePathAgrees(t *testing.T) {
	tb, err := E14NetworkServing(2, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d:\n%s", len(tb.Rows), tb.Render())
	}
	if cell(t, tb, 0, 4) != cell(t, tb, 1, 4) {
		t.Errorf("wire row count differs from in-process:\n%s", tb.Render())
	}
	for i := range tb.Rows {
		qps, err := strconv.ParseFloat(cell(t, tb, i, 2), 64)
		if err != nil || qps <= 0 {
			t.Errorf("row %d: bad QPS cell %q:\n%s", i, cell(t, tb, i, 2), tb.Render())
		}
	}
}

// E15's defining shape: restart-by-recovery must beat cold TSV
// re-ingest. The PR's acceptance floor is 3x; the test asserts 2x so a
// noisy CI box cannot flake a genuinely healthy ratio, while the
// committed BENCH_E15.json records the real measurement.
func TestE15RecoveryBeatsColdIngest(t *testing.T) {
	tb, err := E15Durability(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Metrics) != 3 || tb.Metrics[2].Name != "recovery_speedup" {
		t.Fatalf("metrics = %+v", tb.Metrics)
	}
	if speedup := tb.Metrics[2].Value; speedup < 2 {
		t.Errorf("recovery speedup %.2fx, want comfortably above 1 (acceptance floor 3x at full scale):\n%s",
			speedup, tb.Render())
	}
}

// E17's defining shape: the coordinator paths answer the same rows as
// the in-process path (checked inside the driver, which errors
// otherwise), and every QPS figure is positive. The fan-out overhead
// ratios are hardware-dependent, so they are reported, not asserted.
func TestE17ClusterPathAgrees(t *testing.T) {
	tb, err := E17DistributedServing(2, 50*time.Millisecond, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	// in-process, coordinator K=2, HTTP + coordinator K=2.
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d:\n%s", len(tb.Rows), tb.Render())
	}
	for i := range tb.Rows {
		if cell(t, tb, i, 4) != cell(t, tb, 0, 4) {
			t.Errorf("row %d: cluster rows differ from in-process:\n%s", i, tb.Render())
		}
		qps, err := strconv.ParseFloat(cell(t, tb, i, 2), 64)
		if err != nil || qps <= 0 {
			t.Errorf("row %d: bad QPS cell %q:\n%s", i, cell(t, tb, i, 2), tb.Render())
		}
	}
}
