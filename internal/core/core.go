// Package core is the public face of the bounded-evaluation system: one
// Engine that ties together the paper's pipeline —
//
//	check coverage (Theorem 3.11)    →  IsCovered
//	decide bounded evaluability      →  CheckBounded (BEP)
//	synthesize a bounded query plan  →  Plan
//	serve with access accounting     →  Query (ctx, budgets, fallbacks)
//	approximate when not bounded     →  UpperEnvelope / LowerEnvelope (UEP/LEP)
//	specialize parameterized queries →  Specialize (QSP)
//
// This is the strategy the paper's Conclusion prescribes: maintain an
// access schema A; for each query, compute exact answers by accessing a
// bounded amount of data when Q is covered/bounded, and otherwise fall
// back to envelopes or user-driven specialization. Engine.Query is the
// one serving entry point implementing it for CQs, UCQs and ∃FO⁺ alike.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/bep"
	"repro/internal/cover"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/envelope"
	"repro/internal/eval"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/specialize"
	"repro/internal/value"
)

// Options configures an Engine; the zero value is sensible.
type Options struct {
	Cover      cover.Options
	BEP        bep.Options
	Envelope   envelope.Options
	Specialize specialize.Options
	Plan       plan.BuildOptions
	// PlanCache sizes the LRU plan cache: 0 means DefaultPlanCacheSize,
	// negative disables caching.
	PlanCache int
}

// Engine couples a relational schema, an access schema, and (after Load)
// an indexed instance held in memory. It persists nothing: a durable
// deployment serves through internal/shard, whose partitions own the WAL
// and checkpoints.
//
// Concurrency: the Engine serves reads and writes concurrently with
// snapshot isolation. The loaded data lives in an immutable snapshot
// (instance + indices) behind an atomic pointer: Query, IsCovered,
// CheckBounded, Plan, Explain and the envelope/specialize entry points
// may all be called from many goroutines
// at once, and each request reads exactly one snapshot. Load and Apply
// are writers, serialized against each other internally; they build a new
// snapshot on the side and publish it with one pointer swap, so they
// never block or tear in-flight queries — calls that began before the
// swap keep their pre-update view, calls after it see the post-update
// one.
type Engine struct {
	Schema *schema.Schema
	Access *access.Schema
	Opts   Options

	// snap is the current immutable snapshot (nil before the first Load).
	snap atomic.Pointer[snapshot]
	// writeMu serializes the writers (Load, Apply, SetSizeHint).
	writeMu sync.Mutex
	cache   *planCache
	// queries and applies count served requests, for Stats.
	queries atomic.Uint64
	applies atomic.Uint64
	// fetched and scanned accumulate per-request access accounting across
	// every served query (a streamed request contributes once its iterator
	// is drained) — the engine-wide counters behind /metrics.
	fetched atomic.Int64
	scanned atomic.Int64
}

// EngineStats is the aggregate health snapshot of a serving engine —
// the shape shared by the single-node Engine and the sharded
// internal/shard engine (which sums its shards).
type EngineStats struct {
	// Size is |D| of the current snapshot (0 before Load).
	Size int
	// Shards is 1 for a single-node engine, K for a sharded one.
	Shards int
	// Queries counts Query/QueryView requests since construction.
	Queries uint64
	// Applies counts successfully applied deltas since construction.
	Applies uint64
	// Fetched and Scanned accumulate tuple accesses across every served
	// query: Fetched counts index retrievals on the bounded path, Scanned
	// counts tuples read by fallback scans. A streamed request is counted
	// once its row iterator is drained.
	Fetched int64
	Scanned int64
	// Version is the committed snapshot version: 0 right after Load, +1
	// per applied delta. After a durable restart (internal/shard) it
	// resumes at the recovered version, which is how clients confirm
	// recovery.
	Version uint64
}

// Stats reports the engine's aggregate serving counters.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Shards:  1,
		Queries: e.queries.Load(),
		Applies: e.applies.Load(),
		Fetched: e.fetched.Load(),
		Scanned: e.scanned.Load(),
	}
	if sn := e.current(); sn != nil {
		st.Size = sn.instance.Size()
		st.Version = sn.version
	}
	return st
}

// snapshot is one immutable (instance, indices) version; every field is
// read-only once published.
type snapshot struct {
	instance *data.Instance
	indexed  *access.Indexed
	// version counts committed writes: 0 after Load, +1 per Apply.
	version uint64
}

// current returns the live snapshot, or nil before the first Load.
func (e *Engine) current() *snapshot { return e.snap.Load() }

// New builds an engine, validating the access schema against the
// relational schema.
func New(s *schema.Schema, a *access.Schema, opts Options) (*Engine, error) {
	if err := a.Validate(s); err != nil {
		return nil, err
	}
	size := opts.PlanCache
	if size == 0 {
		size = DefaultPlanCacheSize
	}
	return &Engine{Schema: s, Access: a, Opts: opts, cache: newPlanCache(size)}, nil
}

// Load attaches an instance: it builds every index in A and verifies
// D |= A, failing with the list of violations otherwise. The new snapshot
// is published atomically; queries already running keep the previous one.
// After the caller hands d to Load it must not mutate it — ownership
// transfers to the engine.
//
// Loading re-stamps rather than purges the plan cache: cached plans and
// not-bounded verdicts are data-independent given A, so only entries
// whose static bound embeds the instance-size hint (plans fetching
// through general-form constraints s(|D|)) are recomputed at the new
// size; everything else, and the cumulative hit/miss counters, survive.
func (e *Engine) Load(d *data.Instance) error {
	ix, viols, err := access.BuildIndexed(e.Access, d)
	if err != nil {
		return err
	}
	if len(viols) > 0 {
		return fmt.Errorf("core: instance violates the access schema: %v (first of %d)", viols[0], len(viols))
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	// The loaded instance is now read-only until a mutating Apply clones
	// it; drop the load-time dedup maps (rebuilt on demand by writers).
	d.ReleaseDedup()
	e.snap.Store(&snapshot{instance: d, indexed: ix, version: 0})
	e.cache.restamp(d.Size())
	return nil
}

// Apply validates delta against the access schema and, when every
// cardinality bound still holds on the updated data, publishes a new
// snapshot with the delta applied — maintaining every index incrementally
// instead of rebuilding, and leaving queries in flight on their pre-delta
// view (see internal/live for the copy-on-write mechanics). A batch that
// would break a bound is rejected with a *live.ViolationError listing
// every violation, and has no visible effect.
//
// The plan cache survives an Apply the same way it survives Load: only
// size-dependent bounds are re-stamped. Apply is safe to call
// concurrently with queries and with other Apply/Load calls (writers are
// serialized internally); ctx cancels a long apply before it publishes.
func (e *Engine) Apply(ctx context.Context, delta *live.Delta) (*live.Result, error) {
	if delta == nil {
		return nil, fmt.Errorf("core: nil delta")
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	sn := e.current()
	if sn == nil {
		return nil, errNoInstance()
	}
	res, err := live.Apply(ctx, delta, sn.indexed)
	if err != nil {
		return nil, err
	}
	e.snap.Store(&snapshot{instance: res.Instance, indexed: res.Indexed, version: sn.version + 1})
	e.cache.restamp(res.Instance.Size())
	e.applies.Add(1)
	return res, nil
}

// SetSizeHint re-stamps the plan cache for an externally tracked |D|. It
// is the coordinator hook (internal/shard) for a planner engine that
// plans and serves on behalf of data it does not hold itself: cached
// general-form bounds s(|D|) are recomputed at the global size, exactly
// as Load and Apply do automatically for the engine's own instance.
func (e *Engine) SetSizeHint(size int) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.cache.restamp(size)
}

// CacheStats reports cumulative plan-cache hit/miss counters; they
// survive Load and Apply.
func (e *Engine) CacheStats() CacheStats { return e.cache.stats() }

// Instance returns the current snapshot's instance, or nil before Load.
// The returned instance is immutable.
func (e *Engine) Instance() *data.Instance {
	if sn := e.current(); sn != nil {
		return sn.instance
	}
	return nil
}

// Indexed returns the current snapshot's indexed schema, or nil before
// Load. The indices are immutable and safe for concurrent use; an Apply
// publishes a new Indexed rather than mutating this one.
func (e *Engine) Indexed() *access.Indexed {
	if sn := e.current(); sn != nil {
		return sn.indexed
	}
	return nil
}

// Snapshot returns the current (instance, indexed) pair from ONE
// snapshot read, or (nil, nil) before Load. Calling Instance() and
// Indexed() back to back reads the snapshot pointer twice, so a
// concurrent Apply landing between the two calls hands the caller the
// instance of one version and the indices of another; Snapshot cannot
// tear that way. Use it whenever both halves are needed together.
func (e *Engine) Snapshot() (*data.Instance, *access.Indexed) {
	if sn := e.current(); sn != nil {
		return sn.instance, sn.indexed
	}
	return nil, nil
}

// IsCovered runs the PTIME covered-query check with diagnostics.
func (e *Engine) IsCovered(q *cq.CQ) (*cover.Result, error) {
	return cover.Check(q, e.Access, e.Schema, e.Opts.Cover)
}

// IsCoveredUCQ runs the UCQ/∃FO⁺ covered check (covered or dominated subs).
func (e *Engine) IsCoveredUCQ(qs []*cq.CQ) (*cover.UCQResult, error) {
	return cover.CheckUCQ(qs, e.Access, e.Schema, e.Opts.Cover)
}

// CheckBounded runs the BEP checker (coverage + A-equivalent rewrites).
func (e *Engine) CheckBounded(q *cq.CQ) (*bep.Decision, error) {
	return bep.Decide(q, e.Access, e.Schema, e.Opts.BEP)
}

// Plan synthesizes a boundedly evaluable plan for q, going through the BEP
// checker so that A-equivalent rewrites (chase, redundant-atom drops) are
// applied when the query is not covered as written. The returned Bound is
// the static worst-case access bound over every D |= A.
//
// Outcomes (both plans and not-bounded verdicts, along with the BEP
// decision backing them) are memoized in an LRU cache keyed by q's
// template key (cq.KeyParams), so repeat queries of the same shape —
// α-renamed variants, and variants that differ only in their constants —
// skip the BEP check and plan synthesis entirely: a cached plan is
// rebound to the query's constants (plan.Bind). A not-bounded verdict
// names the constants it was computed for, so it serves only a query
// with those constants. Entries survive Load and Apply; only
// size-dependent bounds are re-stamped.
func (e *Engine) Plan(q *cq.CQ) (*plan.Plan, plan.Bound, error) {
	return e.PlanAt(q, e.sizeHint())
}

// PlanAt is Plan with an explicit |D| for general-form cardinality
// bounds, for coordinators (internal/shard) whose planner engine holds
// no data of its own: the global dataset size is tracked externally and
// passed per request.
func (e *Engine) PlanAt(q *cq.CQ, sizeHint int) (*plan.Plan, plan.Bound, error) {
	p, b, _, _, err := e.planWithDecision(q, sizeHint, false)
	return p, b, err
}

// sizeHint is |D| of the current snapshot (0 before Load), the input to
// general-form cardinality bounds s(|D|).
func (e *Engine) sizeHint() int {
	if sn := e.current(); sn != nil {
		return sn.instance.Size()
	}
	return 0
}

// planWithDecision is Plan plus the cached BEP decision and a cache-hit
// flag, for callers (Query, Explain) that need the diagnostics without
// re-running the checker. sizeHint is the |D| the caller's snapshot
// reports, so a request's bound is computed against the same version it
// executes (the cache normalizes stored bounds to the latest size).
//
// A cached plan for q's template serves q rebound to q's constants,
// without its decision: the decision names the constants it was made
// for. A caller that needs the decision (explain set) is served only an
// entry computed for q's own constants; any other entry is re-planned
// and replaced.
func (e *Engine) planWithDecision(q *cq.CQ, sizeHint int, explain bool) (*plan.Plan, plan.Bound, *bep.Decision, bool, error) {
	var key string
	var params []value.Value
	if e.cache != nil {
		key, params = q.KeyParams()
		if ent, ok := e.cache.get(key, params, !explain); ok {
			if ent.notBounded != nil {
				return nil, plan.Bound{}, ent.notBounded.Decision, true, ent.notBounded
			}
			dec := ent.dec
			if !ent.sameParams(params) {
				dec = nil
			}
			return ent.planFor(params, q.Label), ent.bound, dec, true, nil
		}
	}
	p, b, dec, err := e.planUncached(q, sizeHint)
	if e.cache != nil {
		var nb *NotBoundedError
		switch {
		case err == nil:
			e.cache.put(&planEntry{key: key, params: params, p: p, bound: b, dec: dec})
		case asNotBounded(err, &nb):
			e.cache.put(&planEntry{key: key, params: params, notBounded: nb})
		}
		// Other errors (schema problems, build failures) are not cached.
	}
	return p, b, dec, false, err
}

// relabel returns a shallow copy of p carrying the caller's label, leaving
// the cached plan (shared across goroutines) untouched.
func relabel(p *plan.Plan, label string) *plan.Plan {
	if p.Label == label {
		return p
	}
	cp := *p
	cp.Label = label
	return &cp
}

// planUncached is the uncached planning pipeline behind Plan.
func (e *Engine) planUncached(q *cq.CQ, sizeHint int) (*plan.Plan, plan.Bound, *bep.Decision, error) {
	dec, err := e.CheckBounded(q)
	if err != nil {
		return nil, plan.Bound{}, nil, err
	}
	switch dec.Verdict {
	case bep.Bounded, bep.BoundedEmpty:
		var p *plan.Plan
		if dec.Verdict == bep.BoundedEmpty {
			// The chase derived a contradiction: the empty plan answers Q
			// on every instance satisfying A.
			p = plan.Empty(q.Label, q.Free)
		} else {
			res, err := e.IsCovered(dec.Witness)
			if err != nil {
				return nil, plan.Bound{}, dec, err
			}
			p, err = plan.Build(res, e.Opts.Plan)
			if err != nil {
				return nil, plan.Bound{}, dec, err
			}
			p = plan.Optimize(p)
		}
		p.Label = q.Label
		b, err := plan.AccessBound(p, sizeHint)
		if err != nil {
			return nil, plan.Bound{}, dec, err
		}
		return p, b, dec, nil
	default:
		return nil, plan.Bound{}, dec, &NotBoundedError{Decision: dec}
	}
}

// NotBoundedError reports that no bounded plan could be built; the
// embedded BEP decision (or, for a union, the covered-UCQ check) carries
// the coverage diagnostics.
type NotBoundedError struct {
	Decision *bep.Decision
	// UCQCover is set instead of Decision when the query was a union: no
	// covered form of the union exists under the access schema.
	UCQCover *cover.UCQResult
	// Label names the refused union (UCQCover case); the CQ case carries
	// its query inside Decision.Cover.
	Label string
}

func (e *NotBoundedError) Error() string {
	if e.UCQCover != nil {
		msg := fmt.Sprintf("core: UCQ %s is not covered by the access schema", e.Label)
		for i, st := range e.UCQCover.Subs {
			if st != cover.SubCovered && st != cover.SubDominated {
				msg += fmt.Sprintf("\n  sub-query %d: not covered and not dominated", i)
			}
		}
		return msg
	}
	msg := "core: query is not boundedly evaluable under the access schema"
	if e.Decision != nil && e.Decision.Cover != nil {
		msg += ":\n" + e.Decision.Cover.Explain()
	}
	return msg
}

// Mode says which of the paper's serving strategies answered a query.
type Mode int

const (
	// ViaBoundedPlan: a boundedly evaluable plan was used.
	ViaBoundedPlan Mode = iota
	// ViaFullScan: the query was not boundedly evaluable; the conventional
	// evaluator answered it by scanning.
	ViaFullScan
	// ViaUpperEnvelope: the query was not boundedly evaluable; a covered
	// upper envelope Qu ⊇ Q answered it through Qu's bounded plan
	// (Query with WithFallback(FallbackEnvelope)).
	ViaUpperEnvelope
)

func (m Mode) String() string {
	switch m {
	case ViaBoundedPlan:
		return "bounded plan"
	case ViaFullScan:
		return "full scan"
	case ViaUpperEnvelope:
		return "upper envelope"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

func asNotBounded(err error, target **NotBoundedError) bool {
	for err != nil {
		if nb, ok := err.(*NotBoundedError); ok {
			*target = nb
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// Baseline answers q with the conventional evaluator (for comparisons).
func (e *Engine) Baseline(q *cq.CQ, mode eval.Mode) (*eval.Result, error) {
	sn := e.current()
	if sn == nil {
		return nil, errNoInstance()
	}
	return eval.CQ(q, sn.instance, mode)
}

// UpperEnvelope searches for a covered relaxation of q (UEP).
func (e *Engine) UpperEnvelope(q *cq.CQ) (*envelope.Upper, error) {
	return envelope.FindUpper(q, e.Access, e.Schema, e.Opts.Envelope)
}

// LowerEnvelope searches for a covered, A-satisfiable k-expansion (LEP).
func (e *Engine) LowerEnvelope(q *cq.CQ, k int) (*envelope.Lower, error) {
	return envelope.FindLower(q, e.Access, e.Schema, k, e.Opts.Envelope)
}

// Specialize solves QSP for q with parameter set X and budget k.
func (e *Engine) Specialize(q *cq.CQ, X []string, k int) (*specialize.Result, error) {
	return specialize.Decide(q, e.Access, e.Schema, X, k, e.Opts.Specialize)
}

// Explain renders a one-stop report: coverage, BEP verdict, plan and bound
// (when bounded), and envelope/specialization hints otherwise. It runs on
// the plan cache: for a query whose shape has been planned (or refused)
// before, the coverage check, BEP decision and plan all come from the
// cached entry, so Explain on a hot query costs a cache lookup.
func (e *Engine) Explain(q *cq.CQ, params []string) (string, error) {
	return e.ExplainAt(q, params, e.sizeHint())
}

// ExplainAt is Explain with an explicit |D| for general-form bounds,
// mirroring PlanAt for coordinator engines.
func (e *Engine) ExplainAt(q *cq.CQ, params []string, sizeHint int) (string, error) {
	p, b, dec, _, err := e.planWithDecision(q, sizeHint, true)
	var nb *NotBoundedError
	if err != nil && !asNotBounded(err, &nb) {
		return "", err
	}
	out := "query: " + q.String() + "\n"
	if dec == nil {
		// Cache or checker gave no decision (should not happen): fall
		// back to running the checker directly.
		if dec, err = e.CheckBounded(q); err != nil {
			return "", err
		}
	}
	if dec.Cover != nil {
		out += dec.Cover.Explain()
	}
	out += "BEP verdict: " + dec.Verdict.String() + "\n"
	for _, r := range dec.Rewrites {
		out += "  rewrite: " + r + "\n"
	}
	if nb == nil {
		out += p.String() + "\n" + b.String() + "\n"
		return out, nil
	}
	if up, err := e.UpperEnvelope(q); err == nil && up.Found {
		out += "upper envelope: " + up.Qu.String() + fmt.Sprintf("  (Nu ≤ %d)\n", up.Nu)
	}
	if lo, err := e.LowerEnvelope(q, 2); err == nil && lo.Found {
		out += "lower envelope: " + lo.Ql.String() + fmt.Sprintf("  (Nl ≤ %d)\n", lo.Nl)
	}
	if len(params) > 0 {
		if sp, err := e.Specialize(q, params, len(params)); err == nil && sp.Found {
			out += fmt.Sprintf("specializable with parameters %v\n", sp.Params)
		}
	}
	return out, nil
}
