package plan

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/value"
)

// ExecStats accounts for the data a plan execution touched. For a boundedly
// evaluable plan, Fetched is at most the plan's static AccessBound no
// matter how large the instance is — that is the paper's headline property.
type ExecStats struct {
	// Fetched counts tuples retrieved from D via indices (|D_Q|).
	Fetched int64
	// FetchKeys counts distinct index lookups performed.
	FetchKeys int64
	// MaxIntermediate is the largest step's row count: the rows its table
	// holds or, for a fetch fused into the projection after it, the rows
	// it emitted, the same number because those rows are distinct.
	MaxIntermediate int
}

// cancelStride is how many loop iterations an operator runs between
// context checks: often enough that cancellation lands promptly, rarely
// enough that the atomic load in ctx.Err() stays off the profile.
const cancelStride = 256

// ExecOptions is the executor's former tuning struct, kept fieldless only
// because the frozen benchmark/layers.go passes plan.ExecOptions{} to
// ExecuteSource; the next benchmark PR drops the argument and this type.
type ExecOptions struct{}

// Execute runs the plan against an indexed instance without cancellation.
// Every FetchOp must be backed by a constraint present in ix.
func Execute(p *Plan, ix *access.Indexed) (*Table, *ExecStats, error) {
	return run(context.Background(), p, NewSource(ix), nil)
}

// ExecuteSource runs p with fetches resolved through src — a single-node
// index (NewSource) or the scatter-gather source of a sharded engine —
// and returns the answer table.
//
// ctx is observed between steps and every cancelStride iterations inside
// every operator loop: when it is canceled or its deadline passes,
// execution stops and the context's error is returned (wrapped; test with
// errors.Is). The stats are returned even then — they account for what
// the failed execution had already fetched.
func ExecuteSource(ctx context.Context, p *Plan, src Source, _ ExecOptions) (*Table, *ExecStats, error) {
	return run(ctx, p, src, nil)
}

// ExecuteStreamSource runs p like ExecuteSource and additionally hands
// each new row of the final step to yield the moment it is inserted, so a
// consumer sees the answer before it is complete. yield returning false
// stops the final step early (no error). The yielded sequence is exactly
// ExecuteSource's result rows, in order; consumers may retain the rows.
// A yielded row's cells are the only storage of the run that escapes:
// the final table's row headers and row index stay in the pooled
// execution state and are reused by later runs, while the arena chunks
// holding the cells are let go, never cleared or written again.
func ExecuteStreamSource(ctx context.Context, p *Plan, src Source, yield func(data.Tuple) bool) (*ExecStats, error) {
	_, stats, err := run(ctx, p, src, yield)
	return stats, err
}

// statePool holds the execution states runs reuse, so a warm run
// allocates per row it keeps, not per plan step. It is package-level
// rather than per plan because plans are shallow-copied (a copied
// sync.Pool is a vet copylocks error), and so every caller — core, the
// shard coordinator, cluster nodes, the benchmarks — shares it unplumbed.
//
// The invariant that makes reuse safe: nothing of a pooled table that a
// consumer can see is reused. Intermediate rows never escape, because
// every step copies its rows into its own table's arena: no table ever
// holds another table's rows. The final step's rows do escape. A
// materialised run returns its final table, so that one is allocated
// fresh. A streamed run yields only rows, so its final table is pooled
// like the others, but trim lets go of its arena, whose cells the yielded
// rows share, instead of clearing it.
var statePool = sync.Pool{New: func() any { return new(execState) }}

// execState is the storage a run reuses from earlier runs: a table per
// step, the fetch's key dedup and buffers, and the projection's row
// scratch. release returns it to statePool.
type execState struct {
	tables  []*Table // tables[i] backs step i, unless it is a materialised final step
	results []*Table // this run's step results, indexed by step
	// escaped is the pooled final table of a streamed run: its arena's
	// cells reached the consumer.
	escaped *Table
	fetch   fetchEval
	buf     data.Tuple // the output row of project
	pos     []int      // project input positions
}

// run is the one step loop: every step's rows are inserted into its
// table, and the final step's new rows also go to yield when it is
// non-nil. The final step's span then carries the "+stream+dedup" suffix.
// A fetch whose rows only the projection right after it reads is fused
// with it when its rows are distinct (see fuses): the fetch's span
// covers its setup and resolve, the projection's span the emit pass, and
// the fetch's table keeps its columns but no rows. The run's execution
// state comes from statePool and goes back on every exit path: drained,
// stopped by yield, canceled or failed.
func run(ctx context.Context, p *Plan, src Source, yield func(data.Tuple) bool) (*Table, *ExecStats, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	st := statePool.Get().(*execState)
	defer st.release()
	return st.run(ctx, p, src, yield)
}

func (st *execState) run(ctx context.Context, p *Plan, src Source, yield func(data.Tuple) bool) (*Table, *ExecStats, error) {
	stats := &ExecStats{}
	tr := obs.FromContext(ctx)
	last := len(p.Steps) - 1
	var prev *obs.Span
	for i, op := range p.Steps {
		if err := ctx.Err(); err != nil {
			return nil, stats, fmt.Errorf("plan: canceled before step T%d: %w", i, err)
		}
		var stepYield func(data.Tuple) bool
		if i == last {
			stepYield = yield
		}
		sp, f0, k0 := startStepSpan(tr, i, op, stepYield != nil, stats)
		drains := st.fetch.fused
		t, err := st.execOp(ctx, op, st.table(i, last, yield != nil), src, stats, stepYield, fuses(p, i))
		if drains {
			// Step i read the fused fetch T(i-1) as it emitted: those
			// rows are T(i-1)'s.
			st.fetch.fused = false
			prev.SetRows(int64(st.fetch.emitted))
			stats.MaxIntermediate = max(stats.MaxIntermediate, st.fetch.emitted)
		}
		if sp != nil {
			if t != nil {
				sp.SetRows(int64(t.Len()))
			}
			sp.SetFetch(stats.Fetched-f0, stats.FetchKeys-k0)
			sp.End()
		}
		prev = sp
		if err != nil {
			return nil, stats, fmt.Errorf("plan: step T%d (%s): %w", i, op, err)
		}
		st.results = append(st.results, t)
		if t.Len() > stats.MaxIntermediate {
			stats.MaxIntermediate = t.Len()
		}
	}
	return st.results[last], stats, nil
}

// table returns the table step i fills: a fresh one for the final step
// of a materialised run, which is returned, and the state's reused one
// for any other step. A streamed run's final table is marked escaped.
func (st *execState) table(i, last int, streamed bool) *Table {
	if i == last && !streamed {
		return new(Table)
	}
	for len(st.tables) <= i {
		st.tables = append(st.tables, nil)
	}
	if st.tables[i] == nil {
		st.tables[i] = new(Table)
	}
	if i == last {
		st.escaped = st.tables[i]
	}
	return st.tables[i]
}

// row returns the state's row scratch, empty with capacity for n cells.
func (st *execState) row(n int) data.Tuple {
	st.buf = slices.Grow(st.buf[:0], n)
	return st.buf
}

// release trims the state and returns it to statePool.
func (st *execState) release() {
	st.trim()
	statePool.Put(st)
}

// trim cuts the state to its retention bound (retainCells) and drops
// every reference into the run: its final table, its source, the values
// it copied. The escaped table's arena is dropped, not cleared, so rows a
// consumer kept never change.
func (st *execState) trim() {
	clear(st.results)
	st.results = st.results[:0]
	for i, t := range st.tables {
		switch {
		case t == nil:
		case !t.retainable():
			st.tables[i] = nil
		default:
			if t == st.escaped {
				t.arena = nil
			}
			t.reset()
		}
	}
	st.escaped = nil
	st.fetch.trim()
	clear(st.buf[:cap(st.buf)])
}

// startStepSpan opens the per-operator profile span for plan step i and
// snapshots the fetch accounting, so the span's Fetched/Keys are the
// step's delta. A nil trace costs a nil check and nothing else.
func startStepSpan(tr *obs.Trace, i int, op Op, streamed bool, stats *ExecStats) (sp *obs.Span, f0, k0 int64) {
	if tr == nil {
		return nil, 0, 0
	}
	name := opKind(op)
	if streamed {
		name += "+stream+dedup"
	}
	sp = tr.StartDetail(name, "T"+strconv.Itoa(i)+" = "+op.String())
	return sp, stats.Fetched, stats.FetchKeys
}

// opKind names a span after its operator class; the full operator text
// goes in the span's Detail.
func opKind(op Op) string {
	switch op.(type) {
	case ConstOp:
		return "const"
	case FetchOp:
		return "fetch"
	case ProjectOp:
		return "project"
	case UnionOp:
		return "union"
	default:
		return "op"
	}
}

// eachRow feeds rows to fn in order until fn returns false, observing ctx
// every cancelStride rows.
func eachRow(ctx context.Context, rows []data.Tuple, fn func(data.Tuple) bool) error {
	for i, row := range rows {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !fn(row) {
			return nil
		}
	}
	return nil
}

// sink is where an operator's rows land: each is inserted into the step's
// table under set semantics and, when yield is non-nil, every NEW row —
// the table's stored copy, so consumers may retain it — is handed to
// yield. A yield returning false stops the operator (stopped; no error).
//
// distinct is set when the step cannot produce a row twice; its rows are
// then appended with no hash. Every step's table is duplicate-free, by
// induction over the steps, and the operator's shape proves the rest:
//   - a literal with at most one row;
//   - a projection that keeps every input column: it is injective;
//   - a fetch that drops no Y attribute. Its output rows are input rows,
//     each extended by the projections of its key's bucket. Rows of two
//     distinct input rows differ in the input's columns. Two projections
//     of one bucket are distinct (Fetcher's contract), so they differ in
//     some Y attribute, and every Y attribute lands in a column the row
//     keeps: a fresh one, or one it is equated with, which then holds
//     the projection's own value;
//   - a fetch that drops a Y attribute, when every bucket it fetched
//     this run holds at most one projection: each input row then yields
//     at most one row. This is read off the buckets, not the declared N,
//     so it holds on an instance that violates its constraints too.
//
// A union, a wider literal and a projection that drops a column dedup.
type sink struct {
	out      *Table
	yield    func(data.Tuple) bool
	distinct bool
	stopped  bool
}

// add takes one row, typically held in the operator's reused scratch
// buffer; it reports whether the operator should keep producing.
//
//bevet:hotpath
func (s *sink) add(row data.Tuple) bool {
	fresh := s.distinct
	if fresh {
		s.out.appendScratch(row)
	} else {
		fresh = s.out.AddScratch(row)
	}
	if fresh && s.yield != nil && !s.yield(s.out.Rows[len(s.out.Rows)-1]) {
		s.stopped = true
	}
	return !s.stopped
}

// execOp runs one plan step, the operator emitting its rows into a sink
// over out, the step's table, which it resets to the step's columns. On an
// error the partially filled table is still returned, for the step's row
// count; a step that fails before producing rows returns nil. fuse lets a
// fetch step whose rows are distinct leave them to the next step, a
// projection, which then reads them as the fetch emits them.
func (st *execState) execOp(ctx context.Context, op Op, out *Table, src Source, stats *ExecStats, yield func(data.Tuple) bool, fuse bool) (*Table, error) {
	s := &sink{out: out, yield: yield}
	emit := s.add
	results := st.results
	switch o := op.(type) {
	case ConstOp:
		out.reset(o.Cols...)
		s.distinct = len(o.Rows) <= 1
		for i, row := range o.Rows {
			if i%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return out, err
				}
			}
			if len(row) != len(o.Cols) {
				return nil, fmt.Errorf("literal row of %d values for %d columns", len(row), len(o.Cols))
			}
			if !emit(row) {
				break
			}
		}
		return out, nil
	case FetchOp:
		f := &st.fetch
		if err := f.setup(o, results[o.Input], src, out); err != nil {
			return nil, err
		}
		distinct, err := f.resolve(ctx, stats)
		if err != nil {
			return out, err
		}
		if distinct && fuse {
			f.fused, f.emitted = true, 0
			return out, nil
		}
		s.distinct = distinct
		return out, f.emit(ctx, emit)
	case ProjectOp:
		in := results[o.Input]
		pos, err := in.appendColIndexes(st.pos[:0], o.Cols)
		st.pos = pos
		if err != nil {
			return nil, err
		}
		cols := o.Cols
		if o.As != nil {
			if len(o.As) != len(o.Cols) {
				return nil, fmt.Errorf("project rename arity mismatch")
			}
			cols = o.As
		}
		out.reset(cols...)
		s.distinct = keepsAll(pos, len(in.Cols))
		buf := st.row(len(pos))
		project := func(row data.Tuple) bool {
			buf = buf[:0]
			for _, p := range pos {
				buf = append(buf, row[p])
			}
			return emit(buf)
		}
		if st.fetch.fused {
			return out, st.fetch.drain(ctx, project)
		}
		return out, eachRow(ctx, in.Rows, project)
	case UnionOp:
		l, r := results[o.L], results[o.R]
		if len(l.Cols) != len(r.Cols) {
			return nil, fmt.Errorf("union: arity mismatch %d vs %d", len(l.Cols), len(r.Cols))
		}
		out.reset(l.Cols...)
		if err := eachRow(ctx, l.Rows, emit); err != nil || s.stopped {
			return out, err
		}
		return out, eachRow(ctx, r.Rows, emit)
	default:
		return nil, fmt.Errorf("unknown operation %T", op)
	}
}

// fuses reports whether fetch step i of p may hand its rows straight to
// step i+1 instead of storing them: that step is a projection of Ti, and
// no other step reads Ti. The fetch fuses only if its rows are distinct
// too, which resolve decides, so the rows the projection reads are the
// rows Ti would have held.
func fuses(p *Plan, i int) bool {
	if i+1 >= len(p.Steps) {
		return false
	}
	if pr, ok := p.Steps[i+1].(ProjectOp); !ok || pr.Input != i {
		return false
	}
	for _, op := range p.Steps[i+2:] {
		if in, n := op.inputs(); slices.Contains(in[:n], i) {
			return false
		}
	}
	return true
}

// keepsAll reports whether the input positions pos name every one of n
// columns, so that a projection reading them is injective.
func keepsAll(pos []int, n int) bool {
	for c := 0; c < n; c++ {
		if !slices.Contains(pos, c) {
			return false
		}
	}
	return true
}

// fetchEval is the state of a fetch step: resolved index, input key
// positions, where each Y attribute lands, the input-key dedup, the
// step's key set and the output row scratch. One lives in each execution
// state; setup rebinds it to a step, reusing its storage.
type fetchEval struct {
	in    *Table
	fetch Fetcher
	xpos  []int
	// ypos is the output position of each Y attribute, -1 when it is
	// dropped: its own fresh column, or the input or earlier Y column it
	// is equated with, which emitRow then checks instead of overwriting.
	ypos []int
	// dropsY is set when some Y attribute has no output column.
	dropsY bool
	dedup  argDedup
	// fused is set while the step's rows are owed to the projection
	// after it (see fuses); emitted counts the rows drain fed it.
	fused   bool
	emitted int
	// The step's distinct keys in first-occurrence order: key j is
	// keyBuf[keyEnds[j-1]:keyEnds[j]], viewed as keys[j]; buckets[j] is
	// what it fetched, and keyOf[i] is the key of input row i.
	keyBuf  []byte
	keyEnds []int
	keys    [][]byte
	keyOf   []int32
	buckets []index.Bucket
	rowBuf  data.Tuple
	// route is the fetcher when it routes this step by the Tuple columns
	// at rpos, else nil; key j's route is routes[j], kept like keys[j].
	route           RoutingFetcher
	rpos, routeEnds []int
	routeBuf        []byte
	routes          [][]byte
}

// setup binds f to fetch step o over input in and resets out to the
// step's columns: in's, then fresh Y names.
func (f *fetchEval) setup(o FetchOp, in *Table, src Source, out *Table) error {
	fetch := src.FetcherFor(o.Constraint)
	if fetch == nil {
		return fmt.Errorf("no index for constraint %s", o.Constraint)
	}
	if len(o.XCols) != len(o.Constraint.X) {
		return fmt.Errorf("fetch has %d X columns for %d X attributes", len(o.XCols), len(o.Constraint.X))
	}
	if len(o.YOut) != len(o.Constraint.Y) {
		return fmt.Errorf("fetch has %d Y names for %d Y attributes", len(o.YOut), len(o.Constraint.Y))
	}
	xpos, err := in.appendColIndexes(f.xpos[:0], o.XCols)
	f.xpos = xpos
	if err != nil {
		return err
	}
	out.reset()
	out.Cols = o.appendOutCols(out.Cols, in.Cols)
	f.ypos, f.dropsY = f.ypos[:0], false
	for _, name := range o.YOut {
		p := -1
		if name != "" {
			p = out.ColIndex(name)
		} else {
			f.dropsY = true
		}
		f.ypos = append(f.ypos, p)
	}
	f.in, f.fetch = in, fetch
	f.route, f.rpos = nil, f.rpos[:0]
	if rf, ok := fetch.(RoutingFetcher); ok && len(rf.RouteBy()) > 0 {
		f.route = rf
		for _, a := range rf.RouteBy() {
			c, ok := o.Tuple[a]
			if p := in.ColIndex(c); ok && p >= 0 {
				f.rpos = append(f.rpos, p)
			} else {
				f.route = nil
			}
		}
	}
	f.rowBuf = slices.Grow(f.rowBuf[:0], len(out.Cols))[:len(out.Cols)]
	return nil
}

// trim drops f's references into the run and whatever outgrew the
// retention bound.
func (f *fetchEval) trim() {
	f.in, f.fetch, f.route = nil, nil, nil
	f.dedup.rows, f.dedup.cols = nil, nil
	f.fused = false
	if f.dedup.index.n > retainCells {
		f.dedup.index = rowIndex{}
	}
	clear(f.rowBuf[:cap(f.rowBuf)])
	clear(f.keys[:cap(f.keys)])
	clear(f.buckets[:cap(f.buckets)])
	if cap(f.keyOf) > retainCells {
		f.keyBuf, f.keyEnds, f.keys, f.keyOf, f.buckets, f.routeBuf, f.routeEnds, f.routes = nil, nil, nil, nil, nil, nil, nil, nil
	}
}

// emitRow assembles input row row extended with each row of its key's
// bucket b into the out scratch buffer and sends each to sink, stopping
// when sink returns false. It runs once per input row of every fetch
// step: row is copied into out once, and only the fresh Y cells after it
// are rewritten per bucket row, so the loop allocates nothing; sinks
// copy a row iff they keep it.
//
//bevet:hotpath
func (f *fetchEval) emitRow(row data.Tuple, b index.Bucket, out data.Tuple, sink func(data.Tuple) bool) bool {
	fresh := out[copy(out, row):]
	for bi := 0; bi < b.Len(); bi++ {
		// Fresh Y positions start null: the equate check uses null as
		// its "not yet bound" sentinel.
		clear(fresh)
		ok := true
		for i, p := range f.ypos {
			if p < 0 {
				continue
			}
			if v := b.At(bi, i); out[p].IsNull() {
				out[p] = v
			} else if out[p] != v {
				ok = false
				break
			}
		}
		if ok && !sink(out) {
			return false
		}
	}
	return true
}

// resolve and emit are the fetch over the step's whole key set, in three
// passes. resolve makes the first two: dedup the input rows' X-keys into
// the key scratch, in first-occurrence order, noting each row's key and a
// routed step's route from the key's first row; then resolve them all
// with one FetchAll (or FetchRouted), whose error aborts the step. It
// reports whether the step's rows are distinct (see sink): the step drops
// no Y attribute, or no bucket holds two projections. emit makes the
// third: each input row against its key's bucket, in input order. With
// the scratch warm, the per-row path — hash dedup, key encoding, bucket
// probe, row assembly — is allocation-free.
func (f *fetchEval) resolve(ctx context.Context, stats *ExecStats) (distinct bool, err error) {
	f.dedup.reset(f.in.Rows, f.xpos)
	f.keyBuf, f.keyEnds, f.keyOf = f.keyBuf[:0], f.keyEnds[:0], f.keyOf[:0]
	f.routeBuf, f.routeEnds = f.routeBuf[:0], f.routeEnds[:0]
	routed := f.route != nil
	for i, row := range f.in.Rows {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		if j, seen := f.dedup.seen(hashRowAt(row, f.xpos), i); seen {
			// Every row of a key carries its group's one route on D |= A;
			// rows that disagree send the step to every partition.
			routed = routed && rowsEqualAt(f.in.Rows[j], row, f.rpos)
			f.keyOf = append(f.keyOf, f.keyOf[j])
			continue
		}
		f.keyOf = append(f.keyOf, int32(len(f.keyEnds)))
		f.keyBuf = value.AppendKeyAt(f.keyBuf, row, f.xpos)
		f.keyEnds = append(f.keyEnds, len(f.keyBuf))
		if routed {
			f.routeBuf = value.AppendKeyAt(f.routeBuf, row, f.rpos)
			f.routeEnds = append(f.routeEnds, len(f.routeBuf))
		}
	}
	f.keys = appendViews(f.keys[:0], f.keyBuf, f.keyEnds)
	f.buckets = slices.Grow(f.buckets[:0], len(f.keys))[:len(f.keys)]
	if routed && len(f.keys) > 0 {
		f.routes = appendViews(f.routes[:0], f.routeBuf, f.routeEnds)
		err = f.route.FetchRouted(ctx, f.keys, f.routes, f.buckets)
	} else {
		err = FetchAll(ctx, f.fetch, f.keys, f.buckets)
	}
	if err != nil {
		return false, err
	}
	single := true
	for _, b := range f.buckets {
		stats.FetchKeys++
		stats.Fetched += int64(b.Len())
		single = single && b.Len() <= 1
	}
	return !f.dropsY || single, nil
}

// emit sends each input row, extended by its key's bucket, to sink.
func (f *fetchEval) emit(ctx context.Context, sink func(data.Tuple) bool) error {
	for i, row := range f.in.Rows {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !f.emitRow(row, f.buckets[f.keyOf[i]], f.rowBuf, sink) {
			return nil
		}
	}
	return nil
}

// drain feeds the rows of a fused fetch to fn as emit makes them,
// counting them in f.emitted and observing ctx every cancelStride rows
// it feeds, as eachRow does over a stored table. fn returning false
// stops the fetch.
func (f *fetchEval) drain(ctx context.Context, fn func(data.Tuple) bool) error {
	var err error
	if e := f.emit(ctx, func(row data.Tuple) bool {
		if f.emitted%cancelStride == 0 {
			if err = ctx.Err(); err != nil {
				return false
			}
		}
		f.emitted++
		return fn(row)
	}); e != nil {
		return e
	}
	return err
}

// appendViews appends to dst the consecutive slices of buf that ends
// delimits, each capped at its end.
func appendViews(dst [][]byte, buf []byte, ends []int) [][]byte {
	start := 0
	for _, end := range ends {
		dst = append(dst, buf[start:end:end])
		start = end
	}
	return dst
}
