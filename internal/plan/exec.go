package plan

import (
	"context"
	"fmt"
	"strconv"

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

// run is the one step loop: every step's rows are inserted into its
// table, and the final step's new rows also go to yield when it is
// non-nil. The final step's span then carries the "+stream+dedup" suffix.
func run(ctx context.Context, p *Plan, src Source, yield func(data.Tuple) bool) (*Table, *ExecStats, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	stats := &ExecStats{}
	tr := obs.FromContext(ctx)
	results := make([]*Table, len(p.Steps))
	last := len(p.Steps) - 1
	for i, op := range p.Steps {
		if err := ctx.Err(); err != nil {
			return nil, stats, fmt.Errorf("plan: canceled before step T%d: %w", i, err)
		}
		name := opKind(op)
		var stepYield func(data.Tuple) bool
		if i == last && yield != nil {
			name, stepYield = name+"+stream+dedup", yield
		}
		sp, f0, k0 := startStepSpan(tr, name, i, op, stats)
		t, err := execOp(ctx, op, results, src, stats, stepYield)
		if sp != nil {
			if t != nil {
				sp.SetRows(int64(t.Len()))
			}
			sp.SetFetch(stats.Fetched-f0, stats.FetchKeys-k0)
			sp.End()
		}
		if err == nil {
			err = fetchErrOf(src)
		}
		if err != nil {
			return nil, stats, fmt.Errorf("plan: step T%d (%s): %w", i, op, err)
		}
		results[i] = t
		stats.OpsRun++
		if t.Len() > stats.MaxIntermediate {
			stats.MaxIntermediate = t.Len()
		}
	}
	return results[last], stats, nil
}

// fetchErrOf surfaces a deferred fetch failure from sources whose
// Fetchers cannot report errors inline (the FetchBytes signature is
// infallible by design — local index fetches cannot fail). A networked
// source records the first RPC error it swallows and exposes it through
// the optional FetchErr method; the executor checks it after every step
// so a lost peer aborts the query with a descriptive error instead of
// silently computing over partial buckets.
func fetchErrOf(src Source) error {
	if fe, ok := src.(interface{ FetchErr() error }); ok {
		return fe.FetchErr()
	}
	return nil
}

// startStepSpan opens the per-operator profile span for plan step i and
// snapshots the fetch accounting, so the span's Fetched/Keys are the
// step's delta. A nil trace costs a nil check and nothing else.
func startStepSpan(tr *obs.Trace, name string, i int, op Op, stats *ExecStats) (sp *obs.Span, f0, k0 int64) {
	if tr == nil {
		return nil, 0, 0
	}
	sp = tr.StartDetail(name, "T"+strconv.Itoa(i)+" = "+op.String())
	return sp, stats.Fetched, stats.FetchKeys
}

// opKind names a span after its operator class; the full operator text
// goes in the span's Detail.
func opKind(op Op) string {
	switch op.(type) {
	case unitOp:
		return "unit"
	case ConstOp:
		return "const"
	case EmptyOp:
		return "empty"
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
	case DiffOp:
		return "diff"
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
// over the step's table. On an error the partially filled table is still
// returned, for the step's row count.
func execOp(ctx context.Context, op Op, results []*Table, src Source, stats *ExecStats, yield func(data.Tuple) bool) (*Table, error) {
	s := &sink{yield: yield}
	emit := s.add
	switch o := op.(type) {
	case unitOp:
		s.out = NewTable()
		emit(data.Tuple{})
		return s.out, nil
	case ConstOp:
		s.out = NewTable(o.Col)
		emit(data.Tuple{o.Val})
		return s.out, nil
	case EmptyOp:
		return NewTable(o.Cols...), nil
	case FetchOp:
		f, err := newFetchEval(o, results[o.Input], src)
		if err != nil {
			return nil, err
		}
		s.out = NewTable(f.outCols...)
		return s.out, f.run(ctx, stats, emit)
	case ProjectOp:
		in := results[o.Input]
		pos, err := in.ColIndexes(o.Cols)
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
		s.out = NewTable(cols...)
		buf := make(data.Tuple, 0, len(pos))
		return s.out, eachRow(ctx, in.Rows, func(row data.Tuple) bool {
			buf = buf[:0]
			for _, p := range pos {
				buf = append(buf, row[p])
			}
			return emit(buf)
		})
	case SelectOp:
		in := results[o.Input]
		conds, err := compileConds(o, in)
		if err != nil {
			return nil, err
		}
		s.out = NewTable(in.Cols...)
		return s.out, eachRow(ctx, in.Rows, func(row data.Tuple) bool {
			return !condsMatch(conds, row) || emit(row)
		})
	case ProductOp:
		l, r := results[o.L], results[o.R]
		for _, c := range r.Cols {
			if l.ColIndex(c) >= 0 {
				return nil, fmt.Errorf("product: duplicate column %q (rename first)", c)
			}
		}
		s.out = NewTable(append(append([]string(nil), l.Cols...), r.Cols...)...)
		buf := make(data.Tuple, 0, len(l.Cols)+len(r.Cols))
		n := 0
		for _, lr := range l.Rows {
			for _, rr := range r.Rows {
				if n%cancelStride == 0 {
					if err := ctx.Err(); err != nil {
						return s.out, err
					}
				}
				n++
				buf = append(append(buf[:0], lr...), rr...)
				if !emit(buf) {
					return s.out, nil
				}
			}
		}
		return s.out, nil
	case JoinOp:
		l, r := results[o.L], results[o.R]
		js := newJoinState(l, r)
		if err := js.build(ctx); err != nil {
			return nil, err
		}
		s.out = NewTable(append(append([]string(nil), l.Cols...), js.extraCols...)...)
		buf := make(data.Tuple, 0, len(l.Cols)+len(js.extraR))
		return s.out, eachRow(ctx, l.Rows, func(lr data.Tuple) bool {
			return js.probe(lr, buf, emit)
		})
	case UnionOp:
		l, r := results[o.L], results[o.R]
		if len(l.Cols) != len(r.Cols) {
			return nil, fmt.Errorf("union: arity mismatch %d vs %d", len(l.Cols), len(r.Cols))
		}
		s.out = NewTable(l.Cols...)
		if err := eachRow(ctx, l.Rows, emit); err != nil || s.stopped {
			return s.out, err
		}
		return s.out, eachRow(ctx, r.Rows, emit)
	case DiffOp:
		l, r := results[o.L], results[o.R]
		if len(l.Cols) != len(r.Cols) {
			return nil, fmt.Errorf("difference: arity mismatch %d vs %d", len(l.Cols), len(r.Cols))
		}
		s.out = NewTable(l.Cols...)
		return s.out, eachRow(ctx, l.Rows, func(row data.Tuple) bool {
			return r.Has(row) || emit(row)
		})
	case RenameOp:
		in := results[o.Input]
		if len(o.From) != len(o.To) {
			return nil, fmt.Errorf("rename arity mismatch")
		}
		s.out = NewTable(in.Cols...)
		for i, f := range o.From {
			p := in.ColIndex(f)
			if p < 0 {
				return nil, fmt.Errorf("rename: no column %q", f)
			}
			s.out.Cols[p] = o.To[i]
		}
		return s.out, eachRow(ctx, in.Rows, emit)
	default:
		return nil, fmt.Errorf("unknown operation %T", op)
	}
}

// fetchEval is the per-step state of a fetch: resolved index, input key
// positions, the Y-emission actions, and the scratch buffers (key
// encoding and output row assembly).
type fetchEval struct {
	o       FetchOp
	in      *Table
	fetch   Fetcher
	xpos    []int
	outCols []string
	actions []yAction
	keyBuf  []byte
	rowBuf  data.Tuple
}

// yAction says how one Y attribute lands in the output row: skipped,
// checked against an existing output position (equated), or appended.
type yAction struct {
	skip     bool
	checkPos int // >= 0: must equal this output position
}

func newFetchEval(o FetchOp, in *Table, src Source) (*fetchEval, error) {
	fetch := src.FetcherFor(o.Constraint)
	if fetch == nil {
		return nil, fmt.Errorf("no index for constraint %s", o.Constraint)
	}
	if len(o.XCols) != len(o.Constraint.X) {
		return nil, fmt.Errorf("fetch has %d X columns for %d X attributes", len(o.XCols), len(o.Constraint.X))
	}
	if len(o.YOut) != len(o.Constraint.Y) {
		return nil, fmt.Errorf("fetch has %d Y names for %d Y attributes", len(o.YOut), len(o.Constraint.Y))
	}
	xpos, err := in.ColIndexes(o.XCols)
	if err != nil {
		return nil, err
	}
	outCols := o.outCols()

	// Plan Y emission: for each Y attribute, either a check against an
	// existing column (equated) or a fresh output position.
	actions := make([]yAction, len(o.YOut))
	posOf := make(map[string]int, len(outCols))
	for i, c := range outCols {
		posOf[c] = i
	}
	nextPos := len(o.XCols)
	for i, name := range o.YOut {
		if name == "" {
			actions[i] = yAction{skip: true, checkPos: -1}
			continue
		}
		if p, seen := posOf[name]; seen {
			// Equated with an X column or an earlier Y attribute: check.
			actions[i] = yAction{checkPos: p}
		} else {
			actions[i] = yAction{checkPos: -1}
			posOf[name] = nextPos
			nextPos++
		}
	}
	return &fetchEval{
		o: o, in: in, fetch: fetch, xpos: xpos, outCols: outCols, actions: actions,
		rowBuf: make(data.Tuple, len(outCols)),
	}, nil
}

// emitBucket assembles the output rows of one bucket into the out scratch
// buffer and sends each to sink, stopping when sink returns false. It
// runs once per distinct key of every fetch node and out is reused across
// every bucket row, so the loop allocates nothing; sinks copy a row iff
// they keep it.
//
//bevet:hotpath
func (f *fetchEval) emitBucket(row data.Tuple, b index.Bucket, out data.Tuple, st *ExecStats, sink func(data.Tuple) bool) bool {
	st.FetchKeys++
	st.Fetched += int64(b.Len())
	nx := len(f.o.XCols)
	for bi := 0; bi < b.Len(); bi++ {
		out = out[:len(f.outCols)]
		for i, p := range f.xpos {
			out[i] = row[p]
		}
		// Y positions start null: the equate check uses null as its
		// "not yet bound" sentinel.
		for i := nx; i < len(out); i++ {
			out[i] = value.Value{}
		}
		ok := true
		cursor := nx
		for i, act := range f.actions {
			v := b.At(bi, i)
			switch {
			case act.skip:
			case act.checkPos >= 0:
				if out[act.checkPos].IsNull() {
					out[act.checkPos] = v
				} else if out[act.checkPos] != v {
					ok = false
				}
			default:
				out[cursor] = v
				cursor++
			}
			if !ok {
				break
			}
		}
		if ok && !sink(out) {
			return false
		}
	}
	return true
}

// run streams the fetch over the input rows in order, deduping keys
// inline with no item buffer. The per-row path — hash dedup, key encoding
// into scratch, bucket probe, row assembly — is allocation-free.
func (f *fetchEval) run(ctx context.Context, stats *ExecStats, sink func(data.Tuple) bool) error {
	dd := newArgDedup(f.in.Rows, f.xpos)
	for i, row := range f.in.Rows {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if dd.seen(i) {
			continue
		}
		f.keyBuf = value.AppendKeyAt(f.keyBuf[:0], row, f.xpos)
		if !f.emitBucket(row, f.fetch.FetchBytes(f.keyBuf), f.rowBuf, stats, sink) {
			return nil
		}
	}
	return nil
}

// cond is one compiled selection predicate; r == -1 means comparison with
// the constant c.
type cond struct {
	l, r int
	c    value.Value
}

func compileConds(o SelectOp, in *Table) ([]cond, error) {
	conds := make([]cond, len(o.Conds))
	for i, ec := range o.Conds {
		l := in.ColIndex(ec.L)
		if l < 0 {
			return nil, fmt.Errorf("select: no column %q", ec.L)
		}
		if ec.R != "" {
			r := in.ColIndex(ec.R)
			if r < 0 {
				return nil, fmt.Errorf("select: no column %q", ec.R)
			}
			conds[i] = cond{l: l, r: r}
		} else {
			conds[i] = cond{l: l, r: -1, c: ec.C}
		}
	}
	return conds, nil
}

// condsMatch runs once per fetched row; it must stay allocation-free.
//
//bevet:hotpath
func condsMatch(conds []cond, row data.Tuple) bool {
	for _, c := range conds {
		if c.r >= 0 {
			if row[c.l] != row[c.r] {
				return false
			}
		} else if row[c.l] != c.c {
			return false
		}
	}
	return true
}

// joinState is the column analysis and hash table of a natural join. The
// hash table groups right-row INDEXES by the 64-bit hash of their join columns;
// probes confirm the join element-wise, so hash collisions cost a
// compare, never a wrong row.
type joinState struct {
	r                *Table
	sharedL, sharedR []int
	extraR           []int
	extraCols        []string
	groups           map[uint64][]int32
}

func newJoinState(l, r *Table) *joinState {
	js := &joinState{r: r}
	// Shared columns become the hash key; right-only columns extend rows.
	for j, c := range r.Cols {
		if i := l.ColIndex(c); i >= 0 {
			js.sharedL = append(js.sharedL, i)
			js.sharedR = append(js.sharedR, j)
		} else {
			js.extraR = append(js.extraR, j)
			js.extraCols = append(js.extraCols, c)
		}
	}
	return js
}

// build fills the hash table from the right side.
func (js *joinState) build(ctx context.Context) error {
	js.groups = make(map[uint64][]int32, js.r.Len())
	for i, rr := range js.r.Rows {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		h := hashRowAt(rr, js.sharedR)
		js.groups[h] = append(js.groups[h], int32(i))
	}
	return nil
}

// probe matches one left row against the hash table, assembling joined
// rows in the out scratch buffer and sending each to sink; it reports
// whether the consumer still wants more rows. It runs once per left row,
// so it must stay allocation-free — out is caller-owned with capacity for
// the full output width, and sinks copy a row iff they keep it.
//
//bevet:hotpath
func (js *joinState) probe(lr data.Tuple, out data.Tuple, sink func(data.Tuple) bool) bool {
	h := hashRowAt(lr, js.sharedL)
	for _, ri := range js.groups[h] {
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
