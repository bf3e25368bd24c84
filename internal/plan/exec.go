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
	// OpsRun counts executed plan steps.
	OpsRun int
	// MaxIntermediate is the largest intermediate table size.
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
// The invariant that makes reuse safe: nothing of a pooled table outlives
// its run. The final step's table is never pooled — its rows escape,
// returned materialised or yielded to a consumer that may keep them — so
// it is allocated fresh on every run. Intermediate rows never escape,
// because every step inserts through AddScratch, which copies the row into
// the step's own arena: no table ever holds another table's rows.
var statePool = sync.Pool{New: func() any { return new(execState) }}

// execState is the storage a run reuses from earlier runs: a table per
// intermediate step, the fetch's and join's hash structures and buffers,
// and the operators' row scratch. release returns it to statePool.
type execState struct {
	tables  []*Table // tables[i] backs intermediate step i
	results []*Table // this run's step results, indexed by step
	fetch   fetchEval
	join    joinState
	buf     data.Tuple // the output row of project, product and join
	pos     []int      // project input positions
	conds   []cond
}

// run is the one step loop: every step's rows are inserted into its
// table, and the final step's new rows also go to yield when it is
// non-nil. The final step's span then carries the "+stream+dedup" suffix.
// The run's execution state comes from statePool and goes back on every
// exit path: drained, stopped by yield, canceled or failed.
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
	for i, op := range p.Steps {
		if err := ctx.Err(); err != nil {
			return nil, stats, fmt.Errorf("plan: canceled before step T%d: %w", i, err)
		}
		var stepYield func(data.Tuple) bool
		if i == last {
			stepYield = yield
		}
		sp, f0, k0 := startStepSpan(tr, i, op, stepYield != nil, stats)
		t, err := st.execOp(ctx, op, st.table(i, last), src, stats, stepYield)
		if sp != nil {
			if t != nil {
				sp.SetRows(int64(t.Len()))
			}
			sp.SetFetch(stats.Fetched-f0, stats.FetchKeys-k0)
			sp.End()
		}
		if err != nil {
			return nil, stats, fmt.Errorf("plan: step T%d (%s): %w", i, op, err)
		}
		st.results = append(st.results, t)
		stats.OpsRun++
		if t.Len() > stats.MaxIntermediate {
			stats.MaxIntermediate = t.Len()
		}
	}
	return st.results[last], stats, nil
}

// table returns the table step i fills: a fresh one for the final step,
// whose rows escape, and the state's reused one for any other.
func (st *execState) table(i, last int) *Table {
	if i == last {
		return new(Table)
	}
	for len(st.tables) <= i {
		st.tables = append(st.tables, nil)
	}
	if st.tables[i] == nil {
		st.tables[i] = new(Table)
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
// it copied.
func (st *execState) trim() {
	clear(st.results)
	st.results = st.results[:0]
	for i, t := range st.tables {
		switch {
		case t == nil:
		case t.retainable():
			t.reset()
		default:
			st.tables[i] = nil
		}
	}
	st.fetch.trim()
	st.join.trim()
	clear(st.buf[:cap(st.buf)])
	clear(st.conds[:cap(st.conds)])
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
	case SelectOp:
		return "select"
	case ProductOp:
		return "product"
	case JoinOp:
		return "join"
	case UnionOp:
		return "union"
	case RenameOp:
		return "rename"
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
type sink struct {
	out     *Table
	yield   func(data.Tuple) bool
	stopped bool
}

// add takes one row, typically held in the operator's reused scratch
// buffer; it reports whether the operator should keep producing.
//
//bevet:hotpath
func (s *sink) add(row data.Tuple) bool {
	if s.out.AddScratch(row) && s.yield != nil && !s.yield(s.out.Rows[len(s.out.Rows)-1]) {
		s.stopped = true
	}
	return !s.stopped
}

// execOp runs one plan step, the operator emitting its rows into a sink
// over out, the step's table, which it resets to the step's columns. On an
// error the partially filled table is still returned, for the step's row
// count; a step that fails before producing rows returns nil.
func (st *execState) execOp(ctx context.Context, op Op, out *Table, src Source, stats *ExecStats, yield func(data.Tuple) bool) (*Table, error) {
	s := &sink{out: out, yield: yield}
	emit := s.add
	results := st.results
	switch o := op.(type) {
	case ConstOp:
		out.reset(o.Cols...)
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
		return out, f.run(ctx, stats, emit)
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
		buf := st.row(len(pos))
		return out, eachRow(ctx, in.Rows, func(row data.Tuple) bool {
			buf = buf[:0]
			for _, p := range pos {
				buf = append(buf, row[p])
			}
			return emit(buf)
		})
	case SelectOp:
		in := results[o.Input]
		conds, err := compileConds(st.conds[:0], o, in)
		st.conds = conds
		if err != nil {
			return nil, err
		}
		out.reset(in.Cols...)
		return out, eachRow(ctx, in.Rows, func(row data.Tuple) bool {
			return !condsMatch(conds, row) || emit(row)
		})
	case ProductOp:
		l, r := results[o.L], results[o.R]
		for _, c := range r.Cols {
			if l.ColIndex(c) >= 0 {
				return nil, fmt.Errorf("product: duplicate column %q (rename first)", c)
			}
		}
		out.reset(l.Cols...)
		out.Cols = append(out.Cols, r.Cols...)
		buf := st.row(len(out.Cols))
		n := 0
		for _, lr := range l.Rows {
			for _, rr := range r.Rows {
				if n%cancelStride == 0 {
					if err := ctx.Err(); err != nil {
						return out, err
					}
				}
				n++
				buf = append(append(buf[:0], lr...), rr...)
				if !emit(buf) {
					return out, nil
				}
			}
		}
		return out, nil
	case JoinOp:
		l, js := results[o.L], &st.join
		js.setup(l, results[o.R], out)
		if err := js.build(ctx); err != nil {
			return nil, err
		}
		buf := st.row(len(out.Cols))
		return out, eachRow(ctx, l.Rows, func(lr data.Tuple) bool {
			return js.probe(lr, buf, emit)
		})
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
	case RenameOp:
		in := results[o.Input]
		if len(o.From) != len(o.To) {
			return nil, fmt.Errorf("rename arity mismatch")
		}
		out.reset(in.Cols...)
		for i, f := range o.From {
			p := in.ColIndex(f)
			if p < 0 {
				return nil, fmt.Errorf("rename: no column %q", f)
			}
			out.Cols[p] = o.To[i]
		}
		return out, eachRow(ctx, in.Rows, emit)
	default:
		return nil, fmt.Errorf("unknown operation %T", op)
	}
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
	// dropped: its own fresh column, or the X or earlier Y column it is
	// equated with, which emitBucket then checks instead of overwriting.
	ypos  []int
	dedup argDedup
	// The step's distinct keys in first-occurrence order: key j is
	// keyBuf[keyEnds[j-1]:keyEnds[j]], viewed as keys[j], the encoding of
	// input row rows[j]; buckets[j] is what it fetched.
	keyBuf  []byte
	keyEnds []int
	keys    [][]byte
	rows    []int
	buckets []index.Bucket
	rowBuf  data.Tuple
}

// setup binds f to fetch step o over input in and resets out to the
// step's columns: X columns, then fresh Y names.
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
	out.Cols = o.appendOutCols(out.Cols)
	f.ypos = f.ypos[:0]
	for _, name := range o.YOut {
		p := -1
		if name != "" {
			p = lastIndex(out.Cols, name)
		}
		f.ypos = append(f.ypos, p)
	}
	f.in, f.fetch = in, fetch
	f.rowBuf = slices.Grow(f.rowBuf[:0], len(out.Cols))[:len(out.Cols)]
	return nil
}

// lastIndex returns the position of the last name in cols equal to c, or
// -1, so a Y attribute equated with a repeated X name checks its last copy.
func lastIndex(cols []string, c string) int {
	for i := len(cols) - 1; i >= 0; i-- {
		if cols[i] == c {
			return i
		}
	}
	return -1
}

// trim drops f's references into the run and whatever outgrew the
// retention bound.
func (f *fetchEval) trim() {
	f.in, f.fetch = nil, nil
	f.dedup.rows, f.dedup.cols = nil, nil
	if len(f.dedup.first) > retainCells {
		f.dedup.first = nil
	}
	clear(f.rowBuf[:cap(f.rowBuf)])
	clear(f.keys[:cap(f.keys)])
	clear(f.buckets[:cap(f.buckets)])
	if cap(f.rows) > retainCells {
		f.keyBuf, f.keyEnds, f.keys, f.rows, f.buckets = nil, nil, nil, nil, nil
	}
}

// emitBucket assembles the output rows of one bucket into the out scratch
// buffer and sends each to sink, stopping when sink returns false. It
// runs once per distinct key of every fetch node and out is reused across
// every bucket row, so the loop allocates nothing; sinks copy a row iff
// they keep it.
//
//bevet:hotpath
func (f *fetchEval) emitBucket(row data.Tuple, b index.Bucket, out data.Tuple, stats *ExecStats, sink func(data.Tuple) bool) bool {
	stats.FetchKeys++
	stats.Fetched += int64(b.Len())
	nx := len(f.xpos)
	for bi := 0; bi < b.Len(); bi++ {
		for i, p := range f.xpos {
			out[i] = row[p]
		}
		// Y positions start null: the equate check uses null as its
		// "not yet bound" sentinel.
		for i := nx; i < len(out); i++ {
			out[i] = value.Value{}
		}
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

// run is the fetch over the step's whole key set, in three passes: dedup
// the input rows' X-keys into the key scratch, in first-occurrence order;
// resolve them all with one FetchAll, whose error aborts the step; emit
// each key's bucket against its input row, in input order. With the
// scratch warm, the per-row path — hash dedup, key encoding, bucket
// probe, row assembly — is allocation-free.
func (f *fetchEval) run(ctx context.Context, stats *ExecStats, sink func(data.Tuple) bool) error {
	f.dedup.reset(f.in.Rows, f.xpos)
	f.keyBuf, f.keyEnds, f.rows = f.keyBuf[:0], f.keyEnds[:0], f.rows[:0]
	for i, row := range f.in.Rows {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if f.dedup.seen(i) {
			continue
		}
		f.keyBuf = value.AppendKeyAt(f.keyBuf, row, f.xpos)
		f.keyEnds = append(f.keyEnds, len(f.keyBuf))
		f.rows = append(f.rows, i)
	}
	f.keys = f.keys[:0]
	start := 0
	for _, end := range f.keyEnds {
		f.keys = append(f.keys, f.keyBuf[start:end:end])
		start = end
	}
	f.buckets = slices.Grow(f.buckets[:0], len(f.keys))[:len(f.keys)]
	if err := FetchAll(ctx, f.fetch, f.keys, f.buckets); err != nil {
		return err
	}
	for j, i := range f.rows {
		if j%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !f.emitBucket(f.in.Rows[i], f.buckets[j], f.rowBuf, stats, sink) {
			return nil
		}
	}
	return nil
}

// cond is one compiled selection predicate: row[l] == row[r].
type cond struct {
	l, r int
}

// compileConds appends o's predicates, resolved against in, to dst.
func compileConds(dst []cond, o SelectOp, in *Table) ([]cond, error) {
	for _, ec := range o.Conds {
		l := in.ColIndex(ec.L)
		if l < 0 {
			return dst, fmt.Errorf("select: no column %q", ec.L)
		}
		r := in.ColIndex(ec.R)
		if r < 0 {
			return dst, fmt.Errorf("select: no column %q", ec.R)
		}
		dst = append(dst, cond{l: l, r: r})
	}
	return dst, nil
}

// condsMatch runs once per fetched row; it must stay allocation-free.
//
//bevet:hotpath
func condsMatch(conds []cond, row data.Tuple) bool {
	for _, c := range conds {
		if row[c.l] != row[c.r] {
			return false
		}
	}
	return true
}

// joinState is the column analysis and hash table of a natural join. The
// hash table chains right-row INDEXES by the 64-bit hash of their join
// columns; probes confirm the join element-wise, so hash collisions cost
// a compare, never a wrong row. One lives in each execution state; setup
// rebinds it to a step, reusing its storage.
type joinState struct {
	r                *Table
	sharedL, sharedR []int
	extraR           []int
	// head maps a join-column hash to the first right row bearing it;
	// next[i] is the following right row with the same hash, -1 at the
	// end. Chains run in ascending row order, so join output order is
	// the right side's row order within each left row.
	head map[uint64]int32
	next []int32
}

// setup binds js to l ⋈ r and resets out to the join's columns: l's, then
// r's columns not in l. Shared columns become the hash key; right-only
// columns extend rows.
func (js *joinState) setup(l, r, out *Table) {
	js.r = r
	js.sharedL, js.sharedR, js.extraR = js.sharedL[:0], js.sharedR[:0], js.extraR[:0]
	out.reset(l.Cols...)
	for j, c := range r.Cols {
		if i := l.ColIndex(c); i >= 0 {
			js.sharedL = append(js.sharedL, i)
			js.sharedR = append(js.sharedR, j)
		} else {
			js.extraR = append(js.extraR, j)
			out.Cols = append(out.Cols, c)
		}
	}
}

// build fills the hash table from the right side. Rows are chained last
// to first, so each chain ends up in ascending row order.
func (js *joinState) build(ctx context.Context) error {
	n := js.r.Len()
	if js.head == nil {
		js.head = make(map[uint64]int32, n)
	} else {
		clear(js.head)
	}
	js.next = slices.Grow(js.next[:0], n)[:n]
	for k := 0; k < n; k++ {
		if k%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		i := n - 1 - k
		h := hashRowAt(js.r.Rows[i], js.sharedR)
		if j, ok := js.head[h]; ok {
			js.next[i] = j
		} else {
			js.next[i] = -1
		}
		js.head[h] = int32(i)
	}
	return nil
}

// trim drops js's references into the run and whatever outgrew the
// retention bound.
func (js *joinState) trim() {
	js.r = nil
	if cap(js.next) > retainCells {
		js.head, js.next = nil, nil
	}
}

// probe matches one left row against the hash table, assembling joined
// rows in the out scratch buffer and sending each to sink; it reports
// whether the consumer still wants more rows. It runs once per left row,
// so it must stay allocation-free — out is caller-owned with capacity for
// the full output width, and sinks copy a row iff they keep it.
//
//bevet:hotpath
func (js *joinState) probe(lr data.Tuple, out data.Tuple, sink func(data.Tuple) bool) bool {
	ri, ok := js.head[hashRowAt(lr, js.sharedL)]
	if !ok {
		return true
	}
	for ; ri >= 0; ri = js.next[ri] {
		rr := js.r.Rows[ri]
		match := true
		for i, lc := range js.sharedL {
			if lr[lc] != rr[js.sharedR[i]] {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		out = out[:0]
		out = append(out, lr...)
		for _, p := range js.extraR {
			out = append(out, rr[p])
		}
		if !sink(out) {
			return false
		}
	}
	return true
}
