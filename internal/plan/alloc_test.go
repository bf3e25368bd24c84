package plan

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workload"
)

// Allocation-regression tests for the execution hot path: the per-row
// work of fetch (key dedup → key encode → index probe → row assembly)
// and dedup must allocate nothing. Each test pins one primitive with
// testing.AllocsPerRun at exactly 0 allocations per row, so any future
// boxing, map-key copy or buffer regrowth sneaking back in fails loudly
// rather than showing up as a benchmark drift. TestQueryAllocCeiling
// pins the per-query cost beside them.

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// allocFixture builds a small indexed instance: R(A -> B,C) with
// STRING B values (strings are the easy way to re-introduce per-row
// allocations) and an input table of rows keying into it, each key
// carried by two rows.
func allocFixture(t testing.TB) (*access.Indexed, *Table, FetchOp) {
	t.Helper()
	sc := schema.MustNew(schema.MustRelation("R", "A", "B", "C"))
	c := access.NewConstraint("R", attrs("A"), attrs("B", "C"), 8)
	a := access.NewSchema(c)
	d := data.NewInstance(sc)
	r := d.Relation("R")
	names := []string{"ada", "grace", "edsger", "barbara"}
	for i := int64(0); i < 64; i++ {
		r.MustInsert(value.NewInt(i%16), value.NewString(names[i%4]), value.NewInt(i))
	}
	ix, viols, err := access.BuildIndexed(a, d)
	if err != nil || len(viols) > 0 {
		t.Fatalf("BuildIndexed: %v %v", viols, err)
	}
	in := &Table{Cols: []string{"x", "k"}}
	for i := int64(0); i < 32; i++ {
		in.Add(data.Tuple{value.NewInt(i % 16), value.NewInt(i)})
	}
	return ix, in, FetchOp{Constraint: c, Input: 0, XCols: []string{"x"}, YOut: []string{"b", "c"}}
}

// allocSink is a row consumer a per-row assertion runs through: add
// takes each row, reset readies it for the next run, and out is its
// table (nil for a consumer that keeps nothing).
type allocSink struct {
	add   func(data.Tuple) bool
	reset func()
	out   *Table
}

// allocSinks are the row consumers every per-row assertion runs through:
// a drop sink (the operator's own work in isolation) and the executor's
// streaming sink — table insert plus yield of each new row — on both of
// its paths, the append of a step proven distinct and the hash dedup of
// any other. The streaming sinks' table is emptied before each run,
// keeping its storage, so every run inserts every row anew: neither path
// may allocate once the table has grown to the run's size.
func allocSinks(cols []string) map[string]allocSink {
	stream := func(distinct bool) allocSink {
		s := &sink{out: new(Table), yield: func(data.Tuple) bool { return true }, distinct: distinct}
		return allocSink{add: s.add, reset: func() { s.out.reset(cols...) }, out: s.out}
	}
	return map[string]allocSink{
		"drop":         {add: func(data.Tuple) bool { return true }, reset: func() {}},
		"stream/fresh": stream(true),
		"stream/dedup": stream(false),
	}
}

// TestFetchRowPathAllocs drives the full fetch inner loop — argDedup and
// its row-to-key mapping over input rows that repeat their keys, key
// encoding into scratch, FetchBytes probe, emitRow row assembly, sink
// insert — and demands zero allocations per input row once the fetchEval
// scratch and the sink's table are warm.
func TestFetchRowPathAllocs(t *testing.T) {
	ix, in, op := allocFixture(t)
	var f fetchEval
	out := new(Table)
	if err := f.setup(op, in, NewSource(ix), out); err != nil {
		t.Fatal(err)
	}
	stats := &ExecStats{}
	ctx := context.Background()
	for name, sink := range allocSinks(out.Cols) {
		run := func() {
			sink.reset()
			if _, err := f.resolve(ctx, stats); err != nil {
				t.Fatal(err)
			}
			if err := f.emit(ctx, sink.add); err != nil {
				t.Fatal(err)
			}
		}
		// Warm twice: the arena keeps only its last chunk across a
		// reset, which the second run grows to hold the whole run.
		run()
		run()
		// Each run re-walks all 32 input rows and, for each, its key's
		// bucket; the argDedup is reset, not rebuilt, so the whole run
		// allocates nothing.
		if avg := testing.AllocsPerRun(100, run); avg != 0 {
			t.Fatalf("%s: fetch inner loop allocates %.1f/run, want 0", name, avg)
		}
		// 32 input rows, each extended by its key's 4 projections.
		if sink.out != nil && sink.out.Len() != 128 {
			t.Fatalf("%s: the run kept %d rows, want 128", name, sink.out.Len())
		}
	}
}

// TestScanRowPathAllocs pins the relation scan primitives: materializing
// a row into a caller buffer and encoding row/projection keys into
// scratch are allocation-free.
func TestScanRowPathAllocs(t *testing.T) {
	sc := schema.MustNew(schema.MustRelation("R", "A", "B"))
	d := data.NewInstance(sc)
	r := d.Relation("R")
	for i := int64(0); i < 32; i++ {
		r.MustInsert(value.NewInt(i), value.NewString("s"))
	}
	buf := make(data.Tuple, 0, 2)
	var kb []byte
	cols := []int{1}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < r.Len(); i++ {
			buf = r.AppendRow(buf, i)
			kb = r.AppendRowKey(kb[:0], i)
			kb = r.AppendKeyAt(kb[:0], i, cols)
		}
	})
	if avg != 0 {
		t.Fatalf("scan row path allocates %.1f/run, want 0", avg)
	}
}

// TestDedupAllocs pins the executor's set-semantics dedup: re-adding an
// existing row through the scratch-buffer insert allocates nothing, with
// or without a yield behind it.
func TestDedupAllocs(t *testing.T) {
	tab := &Table{Cols: []string{"a", "b"}}
	row := data.Tuple{value.NewInt(1), value.NewString("dup")}
	tab.Add(row.Clone())
	scratch := row.Clone()
	stream := &sink{out: tab, yield: func(data.Tuple) bool {
		t.Fatal("duplicate row was yielded")
		return false
	}}
	avg := testing.AllocsPerRun(1000, func() {
		if tab.AddScratch(scratch) {
			t.Fatal("duplicate row was admitted")
		}
		if !stream.add(scratch) {
			t.Fatal("sink stopped")
		}
	})
	if avg != 0 {
		t.Fatalf("duplicate insert allocates %.1f/row, want 0", avg)
	}
}

// TestQueryAllocCeiling pins the per-QUERY cost beside the per-row zeros:
// a Q0-shaped plan over the accidents generator, run through
// ExecuteSource on a warm state pool, allocates a small constant — the
// answer table and the stats — not a table, hash index and arena per plan
// step.
func TestQueryAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop puts at random")
	}
	acc, src := accidentsSource(t, 30, 1)
	p := builtPlan(t, workload.Q0(), acc.Access, acc.Schema)
	if len(p.Steps) != 6 {
		t.Fatalf("Q0 plan has %d steps, want the 6-step shape", len(p.Steps))
	}
	ctx := context.Background()
	run := func() {
		if _, _, err := ExecuteSource(ctx, p, src, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pool
	// One P, so every run gets and puts the same per-P pool slot.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Q0 per run: %d allocations, %d bytes", allocs, bytes)
	if allocs > 12 || bytes > 4<<10 {
		t.Fatalf("Q0 allocates %d times / %d bytes per run, want <= 12 / <= 4 KiB", allocs, bytes)
	}
}

// widePath2Plan plans path2 over a social instance with the serving
// benchmark's degree caps, anchored at the first person whose two-hop
// answer fills at least three arena chunks.
func widePath2Plan(t testing.TB) (*Plan, Source) {
	t.Helper()
	soc, err := workload.GenerateSocial(workload.SocialConfig{People: 2000, MaxFriends: 50, MaxLikes: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix, _, err := access.BuildIndexed(soc.Access, soc.Instance)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSource(ix)
	for me := int64(1); me <= 2000; me++ {
		p := builtPlan(t, workload.PatternQueries(me)[1], soc.Access, soc.Schema)
		tab, _, err := ExecuteSource(context.Background(), p, src, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if tab.Len() > 3*arenaChunkMin {
			return p, src
		}
	}
	t.Fatal("no person has a wide enough two-hop answer")
	return nil, nil
}

// arenaChunks is the number of chunks a table's arena carves to hold
// cells cells: the first holds arenaChunkMin, each next one twice the
// last, up to arenaChunkMax.
func arenaChunks(cells int) int {
	n := 0
	for size, held := arenaChunkMin, 0; held < cells; size = min(2*size, arenaChunkMax) {
		held += size
		n++
	}
	return n
}

// TestStreamedRunAllocs pins the pooled final table of a streamed run: on
// a warm state pool, a streamed path2 — the wide served shape, hundreds
// of answer rows — allocates only the arena chunks its yielded rows keep
// and the stats it returns. The final table's row headers and hash index
// are reused from earlier runs.
func TestStreamedRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop puts at random")
	}
	p, src := widePath2Plan(t)
	ctx := context.Background()
	rows := 0
	yield := func(data.Tuple) bool {
		rows++
		return true
	}
	run := func() {
		rows = 0
		if _, err := ExecuteStreamSource(ctx, p, src, yield); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pool
	run()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	cells := rows * len(p.OutCols)
	limit := uint64(arenaChunks(cells)) + 1
	t.Logf("%s streamed: %d rows, %d allocations per run (limit %d)", p.Label, rows, allocs, limit)
	if allocs > limit {
		t.Fatalf("a warm streamed run allocates %d times, want <= %d: the final arena's chunks for %d cells, and the stats", allocs, limit, cells)
	}
}
