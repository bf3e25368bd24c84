package core

import (
	"context"
	"fmt"
	"iter"
	"time"

	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/envelope"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/posfo"
	"repro/internal/ucq"
	"repro/internal/value"
)

// Query is any query the engine can serve through Engine.Query: a
// conjunctive query (*cq.CQ), a union (*ucq.UCQ), or a positive
// existential FO formula (*posfo.Query). Implementations outside those
// three are served through their UCQ normal form (QueryCQs).
type Query interface {
	// QueryLabel names the query for results and diagnostics.
	QueryLabel() string
	// QueryCQs returns the query's UCQ normal form — the CQ sub-queries
	// whose union is equivalent to the query.
	QueryCQs() ([]*cq.CQ, error)
}

// FallbackMode says what Engine.Query does when a query is not boundedly
// evaluable under the access schema.
type FallbackMode int

const (
	// FallbackScan (the default) answers by conventional evaluation —
	// the Conclusion's "compute exact answers directly" branch. A full
	// scan has no static access bound, so it is refused when the caller
	// set an access budget.
	FallbackScan FallbackMode = iota
	// FallbackRefuse returns the NotBoundedError instead of answering.
	FallbackRefuse
	// FallbackEnvelope answers via a covered upper envelope Qu ⊇ Q when
	// one exists (Section 4), refusing otherwise. Envelope search is
	// defined per CQ; unions fall back to refusal.
	FallbackEnvelope
)

func (m FallbackMode) String() string {
	switch m {
	case FallbackScan:
		return "scan"
	case FallbackRefuse:
		return "refuse"
	case FallbackEnvelope:
		return "envelope"
	default:
		return fmt.Sprintf("fallback(%d)", int(m))
	}
}

// Stats is the unified per-request accounting of Engine.Query, covering
// both serving paths.
type Stats struct {
	// Fetched counts tuples retrieved via indices (bounded path); it is
	// at most Bound.Fetched.
	Fetched int64
	// Scanned counts tuples read by the conventional evaluator (scan
	// path).
	Scanned int64
	// FetchKeys counts distinct index lookups (bounded path).
	FetchKeys int64
	// CacheHit reports whether the plan came from the plan cache.
	CacheHit bool
	// Elapsed is the wall-clock serving time. For a streamed result it
	// initially covers planning and admission only, and is extended to
	// the full request once the row iterator is drained.
	Elapsed time.Duration
}

// Result is Engine.Query's one answer shape, regardless of query class
// and serving mode.
type Result struct {
	// Query is the served query's label.
	Query string
	// Mode says which of the paper's strategies answered the query.
	Mode Mode
	// Columns names the output columns in every mode — the free-variable
	// tuple for scans, the plan's output columns otherwise.
	Columns []string
	// Plan is the bounded plan used (ViaBoundedPlan, ViaUpperEnvelope);
	// nil for scans.
	Plan *plan.Plan
	// Bound is Plan's static worst-case access bound; nil for scans.
	Bound *plan.Bound
	// Envelope is the covered relaxation answered (ViaUpperEnvelope
	// only): its answers contain Q's with |Qu(D) − Q(D)| ≤ Nu.
	Envelope *envelope.Upper
	// Rows is the materialized answer set. It is nil when the query ran
	// with WithStream — consume Seq instead.
	Rows []data.Tuple
	// Stats is the request's unified accounting.
	Stats Stats

	stream func(yield func(data.Tuple) bool)
	err    error
}

// Seq returns the answer rows as a streaming iterator. For a materialized
// result it ranges over Rows. For a streamed result (WithStream) the
// first Seq call executes the plan, yielding final-step rows as they are
// produced without ever materializing the answer table; Stats and Err are
// final once the iterator stops, and the iterator is single-use.
func (r *Result) Seq() iter.Seq[data.Tuple] {
	if r.stream != nil {
		run := r.stream
		r.stream = nil
		return func(yield func(data.Tuple) bool) { run(yield) }
	}
	return func(yield func(data.Tuple) bool) {
		for _, row := range r.Rows {
			if !yield(row) {
				return
			}
		}
	}
}

// Err reports a deferred execution error of a streamed result (for
// example a context canceled mid-stream): when non-nil, the yielded rows
// were cut short. Materialized results always return nil — their errors
// surface from Query itself.
func (r *Result) Err() error { return r.err }

// BudgetError is the admission-control refusal: the request's access
// budget cannot be guaranteed, so no data was touched at all.
type BudgetError struct {
	// Query is the refused query's label.
	Query string
	// Budget is the caller's WithAccessBudget value.
	Budget int64
	// Bound is the plan's static bound when one exists; nil when the
	// query is not boundedly evaluable (a scan has no static bound).
	Bound *plan.Bound
}

func (e *BudgetError) Error() string {
	if e.Bound != nil {
		return fmt.Sprintf("core: query %s refused: static access bound %d exceeds the access budget %d",
			e.Query, e.Bound.Fetched, e.Budget)
	}
	return fmt.Sprintf("core: query %s refused: not boundedly evaluable, so no static access bound fits the access budget %d",
		e.Query, e.Budget)
}

// queryConfig is the per-request tuning assembled from QueryOptions.
type queryConfig struct {
	budget   int64 // < 0: no budget
	fallback FallbackMode
	deadline time.Time
	stream   bool
}

// QueryOption tunes one Engine.Query call.
type QueryOption func(*queryConfig)

// WithAccessBudget admits the request only if the engine can guarantee at
// most n tuples are fetched: the paper's static access bound becomes an
// admission-control knob. When the bound exceeds n — or no bound exists
// and the fallback would scan — Query refuses with a *BudgetError before
// touching any data.
func WithAccessBudget(n int64) QueryOption {
	return func(c *queryConfig) { c.budget = n }
}

// WithFallback selects the strategy for queries that are not boundedly
// evaluable; the default is FallbackScan.
func WithFallback(m FallbackMode) QueryOption {
	return func(c *queryConfig) { c.fallback = m }
}

// WithDeadline bounds the request's execution wall-clock: past t the
// executor observes context.DeadlineExceeded and stops. It composes with
// (and never extends) a deadline already carried by ctx.
func WithDeadline(t time.Time) QueryOption {
	return func(c *queryConfig) { c.deadline = t }
}

// WithStream defers row production: Query returns after planning and
// admission with Rows nil, and the first Result.Seq call executes the
// plan, yielding rows as they are produced without materializing the
// answer table. The ctx passed to Query must stay valid until the
// iterator is drained.
func WithStream() QueryOption {
	return func(c *queryConfig) { c.stream = true }
}

// applyDeadline derives the execution context carrying the request
// deadline, if one was set.
func (c *queryConfig) applyDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.deadline.IsZero() {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, c.deadline)
}

func errNoInstance() error { return fmt.Errorf("core: no instance loaded") }

// View describes the data a request executes against: the dataset size
// |D| that planning and general-form bounds use, the fetch-resolution
// source bounded plans execute through, and the instance the fallback
// scan evaluates. Engine.Query assembles a View from the engine's own
// snapshot; a coordinator (internal/shard) assembles one from externally
// held, hash-partitioned data and serves it through QueryView, reusing
// all of the engine's planning, admission, fallback and streaming logic.
type View struct {
	// Size is |D| of the viewed dataset.
	Size int
	// Source resolves each fetch step's access constraint.
	Source plan.Source
	// Instance returns the instance scans evaluate. It may be expensive
	// (a sharded coordinator materializes the union of its shards
	// lazily), so it is only called when a scan actually runs, and it
	// must observe ctx so a canceled request does not pay for a merge
	// nobody will read.
	Instance func(ctx context.Context) (*data.Instance, error)
}

// viewOf builds the single-node View over one pinned snapshot.
func viewOf(sn *snapshot) *View {
	return &View{
		Size:     sn.instance.Size(),
		Source:   plan.NewSource(sn.indexed),
		Instance: func(context.Context) (*data.Instance, error) { return sn.instance, nil },
	}
}

// Query is the engine's one serving entry point: it answers q — a CQ, a
// UCQ, or an ∃FO⁺ query — with the strategy the paper's Conclusion
// prescribes. The bounded plan is used when the query is boundedly
// evaluable (memoized in the plan cache across calls); otherwise the
// configured fallback answers it: a conventional scan (default), an
// upper envelope, or a refusal.
//
// ctx cancels in-flight execution: every plan operator and the scan
// evaluator observe it periodically, stop, and Query returns the
// context's error (wrapped; test with errors.Is). Per-call tuning comes
// from functional options: WithAccessBudget, WithFallback, WithDeadline,
// WithStream.
//
// Query is safe for concurrent use after Load, like every read entry
// point of the Engine. The snapshot is acquired once, up front:
// everything the request reads — indices on the bounded path, the
// instance on the scan path, even rows produced after Query returns by a
// streamed result — comes from that one consistent version, however many
// updates are applied meanwhile.
func (e *Engine) Query(ctx context.Context, q Query, opts ...QueryOption) (*Result, error) {
	if q == nil {
		return nil, fmt.Errorf("core: nil query")
	}
	sn := e.current()
	if sn == nil {
		return nil, errNoInstance()
	}
	return e.QueryView(ctx, q, viewOf(sn), opts...)
}

// QueryView is Query against an externally assembled data view — the
// coordinator hook internal/shard serves through. The caller owns the
// view's consistency: Size, Source and Instance must all describe the
// same dataset version.
func (e *Engine) QueryView(ctx context.Context, q Query, v *View, opts ...QueryOption) (*Result, error) {
	if q == nil {
		return nil, fmt.Errorf("core: nil query")
	}
	if v == nil || v.Source == nil {
		return nil, fmt.Errorf("core: nil view")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e.queries.Add(1)
	start := time.Now()
	cfg := queryConfig{budget: -1}
	for _, opt := range opts {
		opt(&cfg)
	}
	switch qv := q.(type) {
	case *cq.CQ:
		return e.serveCQ(ctx, start, qv, cfg, v)
	case *ucq.UCQ:
		return e.serveUCQ(ctx, start, qv, cfg, v)
	case *posfo.Query:
		// "A query in ∃FO⁺ is equivalent to a query in UCQ" (Section
		// 3.1): normalize, then serve the normal form.
		subs, err := qv.ToUCQ()
		if err != nil {
			return nil, err
		}
		return e.serveSubs(ctx, start, qv.Label, subs, cfg, v)
	default:
		subs, err := q.QueryCQs()
		if err != nil {
			return nil, err
		}
		return e.serveSubs(ctx, start, q.QueryLabel(), subs, cfg, v)
	}
}

// serveSubs serves a query through its UCQ normal form. A single-disjunct
// normal form goes through the full CQ pipeline (BEP rewrites included) —
// the same strategy whatever Go type the query arrived in; only an
// explicit *ucq.UCQ keeps union planning for a one-sub union.
func (e *Engine) serveSubs(ctx context.Context, start time.Time, label string, subs []*cq.CQ, cfg queryConfig, v *View) (*Result, error) {
	if len(subs) == 1 {
		single := subs[0]
		if single.Label != label {
			single = single.Clone()
			single.Label = label
		}
		return e.serveCQ(ctx, start, single, cfg, v)
	}
	u, err := ucq.New(label, subs...)
	if err != nil {
		return nil, err
	}
	return e.serveUCQ(ctx, start, u, cfg, v)
}

// endPlanSpan closes a plan-phase span with its cache verdict. The
// profile's "plan" span covers boundedness analysis, plan synthesis and
// the cache lookup that may short-circuit both.
func endPlanSpan(sp *obs.Span, hit bool, err error) {
	switch {
	case sp == nil:
	case err != nil:
		sp.SetDetail("no bounded plan")
	case hit:
		sp.SetDetail("cache hit")
	default:
		sp.SetDetail("cache miss")
	}
	sp.End()
}

// serveCQ serves a single conjunctive query against one data view.
func (e *Engine) serveCQ(ctx context.Context, start time.Time, q *cq.CQ, cfg queryConfig, v *View) (*Result, error) {
	tr := obs.FromContext(ctx)
	psp := tr.Start("plan")
	p, b, _, hit, err := e.planWithDecision(q, v.Size, false)
	endPlanSpan(psp, hit, err)
	if err == nil {
		if cfg.budget >= 0 && b.Fetched > cfg.budget {
			return nil, &BudgetError{Query: q.Label, Budget: cfg.budget, Bound: &b}
		}
		return e.runBounded(ctx, start, v.Source, ViaBoundedPlan, p, &b, hit, nil, cfg)
	}
	var nb *NotBoundedError
	if !asNotBounded(err, &nb) {
		return nil, err
	}
	switch cfg.fallback {
	case FallbackRefuse:
		return nil, err
	case FallbackEnvelope:
		esp := tr.Start("plan.envelope")
		pu, bu, up, hitU, eerr := e.envelopePlanCached(q, v.Size)
		endPlanSpan(esp, hitU, eerr)
		if eerr != nil {
			// The search itself failed (e.g. too many atoms for the
			// relaxation search) — that diagnostic beats the generic
			// not-bounded refusal.
			return nil, eerr
		}
		if up == nil {
			return nil, err
		}
		if cfg.budget >= 0 && bu.Fetched > cfg.budget {
			return nil, &BudgetError{Query: q.Label, Budget: cfg.budget, Bound: &bu}
		}
		res, rerr := e.runBounded(ctx, start, v.Source, ViaUpperEnvelope, pu, &bu, hitU, up, cfg)
		if rerr != nil {
			return nil, rerr
		}
		// The result reports the submitted query, not the synthesized
		// relaxation (whose own label lives in Envelope.Qu and Plan).
		res.Query = q.Label
		return res, nil
	default: // FallbackScan
		if cfg.budget >= 0 {
			return nil, &BudgetError{Query: q.Label, Budget: cfg.budget}
		}
		return e.runScan(ctx, start, q.Label, q.Free, cfg, func(sctx context.Context) (*eval.Result, error) {
			inst, err := v.Instance(sctx)
			if err != nil {
				return nil, err
			}
			return eval.CQCtx(sctx, q, inst, eval.HashJoin)
		})
	}
}

// envelopePlanCached memoizes the upper-envelope serving path for a
// not-bounded query shape: the envelope search (several coverage probes)
// and Qu's plan synthesis both run once per shape, under an "env:" cache
// entry. A nil returned envelope with a nil error means none exists
// (that verdict is cached too); errors — from the search or from
// planning Qu — are surfaced and never cached, so a transient failure
// does not poison the shape.
func (e *Engine) envelopePlanCached(q *cq.CQ, sizeHint int) (*plan.Plan, plan.Bound, *envelope.Upper, bool, error) {
	var key string
	var params []value.Value
	if e.cache != nil {
		key, params = q.KeyParams()
		key = "env:" + key
		// Qu embeds q's constants, so only q's own constants are served.
		if ent, b, ok := e.cache.get(key, params, false, sizeHint); ok {
			return ent.p, b, ent.envelope, true, nil
		}
	}
	up, err := e.UpperEnvelope(q)
	if err != nil {
		return nil, plan.Bound{}, nil, false, err
	}
	if !up.Found {
		if e.cache != nil {
			e.cache.put(&planEntry{key: key, params: params}) // negative: no envelope
		}
		return nil, plan.Bound{}, nil, false, nil
	}
	pu, bu, _, _, perr := e.planWithDecision(up.Qu, sizeHint, false)
	if perr != nil {
		return nil, plan.Bound{}, nil, false, perr
	}
	if e.cache != nil {
		e.cache.put(&planEntry{key: key, params: params, p: pu, bound: bu, envelope: up})
	}
	return pu, bu, up, false, nil
}

// serveUCQ serves a union of conjunctive queries, against one data view
// like serveCQ.
func (e *Engine) serveUCQ(ctx context.Context, start time.Time, u *ucq.UCQ, cfg queryConfig, v *View) (*Result, error) {
	tr := obs.FromContext(ctx)
	psp := tr.Start("plan")
	p, b, hit, err := e.planUCQCached(u, v.Size)
	endPlanSpan(psp, hit, err)
	if err == nil {
		if cfg.budget >= 0 && b.Fetched > cfg.budget {
			return nil, &BudgetError{Query: u.Label, Budget: cfg.budget, Bound: &b}
		}
		return e.runBounded(ctx, start, v.Source, ViaBoundedPlan, p, &b, hit, nil, cfg)
	}
	var nb *NotBoundedError
	if !asNotBounded(err, &nb) {
		return nil, err
	}
	switch cfg.fallback {
	case FallbackRefuse, FallbackEnvelope:
		// Envelope search is per-CQ; a non-covered union is refused.
		return nil, err
	default: // FallbackScan
		if cfg.budget >= 0 {
			return nil, &BudgetError{Query: u.Label, Budget: cfg.budget}
		}
		return e.runScan(ctx, start, u.Label, u.Subs[0].Free, cfg, func(sctx context.Context) (*eval.Result, error) {
			inst, err := v.Instance(sctx)
			if err != nil {
				return nil, err
			}
			return eval.UCQCtx(sctx, u.Subs, inst, eval.HashJoin)
		})
	}
}

// runBounded executes a bounded plan against src. The execution is the
// result's stream; finish hands it to the caller or drains it.
func (e *Engine) runBounded(ctx context.Context, start time.Time, src plan.Source, mode Mode, p *plan.Plan, b *plan.Bound, cacheHit bool, up *envelope.Upper, cfg queryConfig) (*Result, error) {
	res := &Result{
		Query:    p.Label,
		Mode:     mode,
		Columns:  append([]string(nil), p.OutCols...),
		Plan:     p,
		Bound:    b,
		Envelope: up,
	}
	res.Stats.CacheHit = cacheHit
	res.stream = func(yield func(data.Tuple) bool) {
		sctx, cancel := cfg.applyDeadline(ctx)
		defer cancel()
		st, err := plan.ExecuteStreamSource(sctx, p, src, yield)
		if st != nil {
			// Counted on failure too: what a canceled execution fetched
			// before it stopped was still fetched.
			res.Stats.Fetched, res.Stats.FetchKeys = st.Fetched, st.FetchKeys
			e.fetched.Add(st.Fetched)
		}
		res.err = err
		res.Stats.Elapsed = time.Since(start)
	}
	return res.finish(start, cfg)
}

// finish completes Query for a result whose stream is set. With
// WithStream the stream is left for the caller's Seq; otherwise it is
// drained into Rows on the spot — a materialized answer is a drained
// stream — and a deferred execution error becomes Query's error.
func (r *Result) finish(start time.Time, cfg queryConfig) (*Result, error) {
	if cfg.stream {
		r.Stats.Elapsed = time.Since(start)
		return r, nil
	}
	for row := range r.Seq() {
		r.Rows = append(r.Rows, row)
	}
	if r.err != nil {
		return nil, r.err
	}
	return r, nil
}

// emitStride is how many buffered scan rows the emission loop yields
// between context checks. The evaluator itself observes ctx while
// computing the answer, but emission can dwarf evaluation when the
// consumer is slow (a network write per row), so the emit loop must
// observe cancellation too — otherwise a request overruns its deadline
// for as long as the consumer keeps reading.
const emitStride = 256

// runScan answers through the conventional evaluator. Scan answers are
// deduplicated and sorted before they can be emitted, so a streamed scan
// defers the evaluation but still buffers internally.
func (e *Engine) runScan(ctx context.Context, start time.Time, label string, cols []string, cfg queryConfig, evalFn func(context.Context) (*eval.Result, error)) (*Result, error) {
	res := &Result{
		Query:   label,
		Mode:    ViaFullScan,
		Columns: append([]string(nil), cols...),
	}
	res.stream = func(yield func(data.Tuple) bool) {
		defer func() { res.Stats.Elapsed = time.Since(start) }()
		sctx, cancel := cfg.applyDeadline(ctx)
		defer cancel()
		sp := obs.FromContext(ctx).Start("scan")
		r, err := evalFn(sctx)
		if err != nil {
			sp.End()
			res.err = err
			return
		}
		// Scanned lives on the child eval.cq spans (one per sub-CQ,
		// so a union's breakdown is visible); duplicating it here
		// would double-count in any tree sum.
		sp.SetRows(int64(len(r.Rows)))
		sp.End()
		res.Stats.Scanned = r.Scanned
		e.scanned.Add(r.Scanned)
		for i, row := range r.Rows {
			if i%emitStride == 0 && sctx.Err() != nil {
				res.err = fmt.Errorf("core: scan stream cut after %d of %d rows: %w",
					i, len(r.Rows), sctx.Err())
				return
			}
			if !yield(row) {
				return
			}
		}
	}
	return res.finish(start, cfg)
}
