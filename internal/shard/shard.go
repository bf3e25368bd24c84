// Package shard implements the hash-partitioned serving engine: the
// same bounded-evaluation surface as internal/core, with every relation
// spread across K partitions by a per-relation partition key. It holds
// the ONE coordinator (Engine), written against the Partition
// interface: New builds it over K partitions in this process (Local),
// internal/cluster over K partitions behind HTTP. Which kind a
// deployment uses is a constructor choice, not a second protocol.
//
// The paper's access constraints compose naturally with horizontal
// partitioning. A bounded plan touches data only through indexed
// fetches, and a fetch for a concrete X-value ā retrieves at most N
// tuples wherever they live: when the relation is partitioned by X the
// whole group D_Y(X = ā) sits on one partition and the fetch ROUTES
// there (one lookup); otherwise the group is split and the fetch
// SCATTERS to all K partitions, merging the per-partition buckets.
// Because index buckets are kept in canonical (key-sorted) order, the
// merge reproduces the exact bucket a single-node index would serve —
// so the engine returns byte-identical rows, in the same order, as
// internal/core on the same data, whatever K is and wherever the
// partitions live (property-tested for local, remote and mixed fleets
// in internal/cluster's equivalence suite).
//
// Consistency model: the coordinator owns one atomic snapshot holding
// every partition pinned at one committed version V, so readers never
// see partition 1 post-delta and partition 2 pre-delta. Apply is
// two-phase — stage everywhere, validate globally, commit everywhere or
// nowhere; see Apply — and a violation anywhere rejects the whole delta
// with the same *live.ViolationError a single-node engine would
// produce.
//
// Durability lives here and only here: each Local partition owns its
// WAL and checkpoints, so the CLIs serve every -shards K, K = 1
// included, as a fleet. A fleet of one costs what the in-memory
// core.Engine costs: the split hands its input through, every
// constraint counts as aligned, a fetch reads the partition's index
// directly and a scan its own instance — nothing is copied or merged.
//
// Deliberately NOT nested core.Engines: a per-partition engine would
// re-validate constraints against its local |D| and its local groups,
// which both misses violations (a group split across partitions) and
// fabricates them (general-form bounds s(|D|) evaluated at the smaller
// local size). The partitions hold data; exactly one planner engine
// plans, admits and serves through core.QueryView against a
// scatter-gather view of them.
package shard

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/eval"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/value"
)

// Options configures a sharded engine.
type Options struct {
	// Shards is K, the number of hash partitions New builds; 0 or 1
	// means a single one, which holds the loaded instance itself.
	Shards int
	// Core configures the planner engine (plan cache size, default exec
	// options, checker options) exactly as for a single-node engine.
	Core core.Options
	// PartitionKeys overrides the per-relation partition key. The
	// default for each relation is the X-attributes of its first access
	// constraint with a nonempty X (so that constraint's fetches route
	// to one partition), falling back to all attributes when no
	// constraint offers one. Fetches route only when a constraint's X
	// matches the partition key exactly (same attributes, same order);
	// everything else scatters.
	PartitionKeys map[string][]schema.Attribute
}

// repairTimeout bounds the best-effort abort/rollback fanout after a
// failed write; it runs detached from the request's (possibly already
// expired) context.
const repairTimeout = 5 * time.Second

// snapshot is one consistent cross-partition version: every partition
// pinned at it, the global size, and a lazily materialized union
// instance for the scan fallback.
type snapshot struct {
	views []View
	size  int
	// version is the committed cross-partition version: 0 after Load,
	// +1 per Apply.
	version uint64

	mergeMu sync.Mutex
	merged  *data.Instance // guarded by mergeMu
}

// instance returns the union of the partitions' instances,
// materializing it on first use (a scan reads every tuple anyway, so
// the merge does not change the fallback's asymptotics) and caching it
// for the snapshot's lifetime; Load seeds it with the loaded instance.
// The merge walks every tuple in the database, so it observes ctx
// between relations: a canceled request must not pay for a union nobody
// will read. Nothing is cached unless every partition delivered its
// whole share. One partition's instance is the union itself.
func (sn *snapshot) instance(ctx context.Context, s *schema.Schema) (*data.Instance, error) {
	sn.mergeMu.Lock()
	defer sn.mergeMu.Unlock()
	if sn.merged != nil {
		return sn.merged, nil
	}
	parts := make([]*access.Indexed, len(sn.views))
	err := fan(len(parts), true, func(i int) (err error) {
		parts[i], err = sn.views[i].Indexed(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		sn.merged = parts[0].Instance
		return sn.merged, nil
	}
	m := data.NewInstance(s)
	for _, part := range parts {
		for _, rs := range s.Relations() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rel := part.Instance.Relation(rs.Name)
			if rel == nil {
				continue
			}
			out := m.Relation(rs.Name)
			var buf data.Tuple
			for ri := 0; ri < rel.Len(); ri++ {
				buf = rel.AppendRow(buf, ri)
				if _, err := out.Insert(buf); err != nil {
					return nil, err
				}
			}
		}
	}
	// The cached union never mutates; drop its merge-time dedup maps.
	m.ReleaseDedup()
	sn.merged = m
	return m, nil
}

// fan runs f(i) for every i in [0, n) and returns the first error in
// index order: on a goroutine each when concurrent, so the partitions'
// work (or round trips) overlaps; otherwise — or when there is only one
// — in order on the caller's goroutine, stopping at the first error.
// Only a non-concurrent f may open trace spans.
func fan(n int, concurrent bool, f func(i int) error) error {
	if !concurrent || n == 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Engine is the coordinator: core.Queryable over K partitions, so
// serving code switches between the in-memory engine, an in-process
// fleet and a networked cluster with a constructor change.
type Engine struct {
	Schema *schema.Schema
	Access *access.Schema
	Planning

	place *Placement
	parts []Partition
	// remote says some partition lives outside this process — all the
	// partition kind decides: round trips overlap (fetch steps and
	// commits fan out on goroutines) and profiles label traffic
	// "peer N"/"cluster.merge" instead of "shard N"/"shard.merge".
	remote    bool
	mergeSpan string
	counters  func(*obs.Trace, int) *obs.ShardCounters

	// snap is the current consistent cross-partition snapshot (nil
	// before the first Load or Attach). writeMu serializes Load, Attach
	// and Apply.
	snap    atomic.Pointer[snapshot]
	writeMu sync.Mutex
	applies atomic.Uint64
	txnSeq  atomic.Uint64
}

var _ core.Queryable = (*Engine)(nil)

// New builds a sharded engine over opts.Shards partitions in this
// process, deriving the partition map from the access schema (see
// Options.PartitionKeys).
func New(s *schema.Schema, a *access.Schema, opts Options) (*Engine, error) {
	if opts.Shards < 0 {
		return nil, fmt.Errorf("shard: negative shard count %d", opts.Shards)
	}
	k := max(opts.Shards, 1)
	parts := make([]Partition, k)
	for i := range parts {
		l, err := NewLocal(s, a, i, k)
		if err != nil {
			return nil, err
		}
		parts[i] = l
	}
	return NewCoordinator(s, a, parts, opts.Core, opts.PartitionKeys)
}

// NewCoordinator builds the engine over the given partitions, in
// partition order: parts[i] must be partition i of len(parts). copts
// and keys are Options.Core and Options.PartitionKeys. Over partitions
// that already hold data, call Attach before serving.
func NewCoordinator(s *schema.Schema, a *access.Schema, parts []Partition, copts core.Options, keys map[string][]schema.Attribute) (*Engine, error) {
	place, err := NewPlacement(s, a, len(parts), keys)
	if err != nil {
		return nil, err
	}
	planner, err := core.New(s, a, copts)
	if err != nil {
		return nil, err
	}
	e := &Engine{Schema: s, Access: a, place: place, parts: parts}
	e.Planner = planner
	e.mergeSpan, e.counters = "shard.merge", obs.NewShardCounters
	for _, p := range parts {
		if _, local := p.(*Local); !local {
			e.remote, e.mergeSpan, e.counters = true, "cluster.merge", obs.NewPeerCounters
		}
	}
	return e, nil
}

func errNoInstance() error {
	return fmt.Errorf("shard: no instance loaded (Load data, or Attach to a loaded fleet)")
}

// publish pins every partition at version and swaps the result in as
// the snapshot readers load. Callers hold writeMu.
func (e *Engine) publish(version uint64, size int, merged *data.Instance) error {
	views := make([]View, len(e.parts))
	for i, p := range e.parts {
		v, err := p.Pin(version)
		if err != nil {
			return err
		}
		views[i] = v
	}
	e.snap.Store(&snapshot{views: views, size: size, version: version, merged: merged})
	e.SetSize(size)
	return nil
}

// Load hash-partitions d, indexes every share in parallel, validates
// D |= A GLOBALLY — cardinality bounds at the full |D|, groups of
// non-aligned constraints measured across partitions, so the verdict
// matches a single-node Load of d — and only then hands each partition
// its share (which its indexes were validated on: nothing is indexed
// twice), restarting the fleet at version 0. A violating dataset is
// refused before any partition changes. Ownership of d transfers to the
// engine: it becomes the new snapshot's cached union instance (and, with
// one partition, that partition's share).
func (e *Engine) Load(d *data.Instance) error {
	k := len(e.parts)
	subs, err := e.place.split(d, -1)
	if err != nil {
		return err
	}
	// BuildIndexed's own violation lists are computed against local
	// sizes; the global check below is the authoritative one.
	ixs := make([]*access.Indexed, k)
	err = fan(k, true, func(i int) (err error) {
		ixs[i], _, err = access.BuildIndexed(e.Access, subs[i])
		return err
	})
	if err != nil {
		return err
	}
	size := d.Size()
	var viols []access.Violation
	for ci, c := range e.Access.Constraints {
		g := 0
		if e.place.aligned(c) {
			for _, ix := range ixs {
				g = max(g, ix.Index(ci).MaxGroup())
			}
		} else {
			groups := make([][]Group, k)
			for i, ix := range ixs {
				groups[i] = groupsOf(ix.Index(ci), nil, true)
			}
			g = largestGroup(groups)
		}
		if bound := c.Card.Bound(size); g > bound {
			viols = append(viols, access.Violation{Constraint: c, Group: g, Bound: bound})
		}
	}
	if len(viols) > 0 {
		return fmt.Errorf("shard: instance violates the access schema: %v (first of %d)", viols[0], len(viols))
	}

	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	ctx := context.Background()
	if err := fan(k, true, func(i int) error { return e.parts[i].Load(ctx, ixs[i]) }); err != nil {
		return err
	}
	d.ReleaseDedup()
	return e.publish(0, size, d)
}

// Attach verifies the fleet — every partition answers, identifies as
// partition i of K, and serves the same catalog — and adopts its
// committed state: the version is the MINIMUM across partitions (a
// crash mid-commit-fanout leaves some one version ahead; nothing there
// was ever acknowledged, so that suffix is rolled back — from the
// partition's retained snapshot, or its durable store if it restarted
// since), the size the sum of the partitions' sizes at that version.
func (e *Engine) Attach(ctx context.Context) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	k := len(e.parts)
	stats := make([]Status, k)
	err := fan(k, true, func(i int) (err error) {
		stats[i], err = e.parts[i].Status(ctx)
		return err
	})
	if err != nil {
		return err
	}
	want := catalogHash(e.Schema, e.Access)
	cut := stats[0].Version
	for i, st := range stats {
		if st.Shard != i || st.Shards != k {
			return fmt.Errorf("shard: partition %d identifies as shard %d of %d (want %d of %d)",
				i, st.Shard, st.Shards, i, k)
		}
		if st.Catalog != want {
			return fmt.Errorf("shard: partition %d serves a different catalog (fingerprint %08x, want %08x)",
				i, st.Catalog, want)
		}
		cut = min(cut, st.Version)
	}
	size := 0
	for i, st := range stats {
		if st.Version > cut {
			if st.Size, err = e.parts[i].Rollback(ctx, cut); err != nil {
				return err
			}
		}
		size += st.Size
	}
	return e.publish(cut, size, nil)
}

// Apply validates delta against the access schema across all
// partitions and publishes a new cross-partition snapshot when every
// cardinality bound still holds — two-phase:
//
//	phase 1 (stage):   split the delta by partition key and stage every
//	                   partition's sub-delta in parallel (empty ones
//	                   too, so versions stay in lockstep), copy-on-
//	                   write, publishing nothing;
//	phase 2 (commit):  validate the staged whole at the global |D| —
//	                   including the shrink-|D| recheck of general-form
//	                   bounds on every partition, touched or not, and
//	                   merged cross-partition group sizes for non-aligned
//	                   constraints — then commit everywhere, or nowhere.
//
// A violation on any partition rejects the whole delta with a
// *live.ViolationError and NO partition publishes. The returned Result
// carries the net insert/delete counts; its Instance/Indexed are nil
// (use Instance() for the union). Queries in flight keep their
// pre-delta snapshot. A caller either observes the full delta applied
// at version V+1, or an error with the fleet still at V — never a
// half-applied write.
func (e *Engine) Apply(ctx context.Context, delta *live.Delta) (*live.Result, error) {
	if delta == nil {
		return nil, fmt.Errorf("shard: nil delta")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	sn := e.snap.Load()
	if sn == nil {
		return nil, errNoInstance()
	}
	subs, err := e.place.splitDelta(delta)
	if err != nil {
		return nil, err
	}
	k := len(e.parts)
	txn := fmt.Sprintf("txn-%d-%d", sn.version+1, e.txnSeq.Add(1))
	tr := obs.FromContext(ctx)

	// Phase 1. The span covers the whole fanout — staging runs on
	// worker goroutines, which never open spans of their own.
	sp := tr.Start("apply.stage")
	staged := make([]*Staged, k)
	err = fan(k, true, func(i int) (err error) {
		staged[i], err = e.parts[i].Stage(ctx, txn, sn.version, subs[i])
		return err
	})
	sp.End()
	if err != nil {
		e.abortAll(txn)
		return nil, err
	}
	newSize := sn.size
	res := &live.Result{}
	for _, st := range staged {
		newSize += st.Size - st.OldSize
		res.Inserted += st.Inserted
		res.Deleted += st.Deleted
	}

	// Phase 2: global validation, then all-or-nothing commit.
	sp = tr.Start("apply.validate")
	viols, err := e.validate(ctx, txn, sn.version, staged, sn.size, newSize)
	sp.End()
	if err == nil && len(viols) > 0 {
		err = &live.ViolationError{Violations: viols}
	}
	if err != nil {
		e.abortAll(txn)
		return nil, err
	}

	// Commit fanout. A partition's commit is its durability point (WAL
	// fsync before its snapshot swaps) and idempotent per txn, so remote
	// commits are retried through transient failures. A crash mid-fanout
	// leaves some partitions one version ahead — invisible to readers,
	// who pin V — for the next stage or Attach to roll back. If a
	// partition cannot be committed, the ones that already did are
	// rolled back here, so the write fails whole.
	sp = tr.Start("apply.commit")
	acked := make([]bool, k)
	err = fan(k, e.remote, func(i int) error {
		_, err := e.parts[i].Commit(ctx, txn, sn.version)
		acked[i] = err == nil
		return err
	})
	sp.End()
	if err != nil {
		rctx, cancel := context.WithTimeout(context.Background(), repairTimeout)
		defer cancel()
		for i, p := range e.parts {
			if acked[i] {
				_, _ = p.Rollback(rctx, sn.version)
			} else {
				_ = p.Abort(rctx, txn)
			}
		}
		return nil, err
	}
	if err := e.publish(sn.version+1, newSize, nil); err != nil {
		return nil, err
	}
	e.applies.Add(1)
	return res, nil
}

// abortAll discards the staged transaction fleet-wide, best-effort: a
// partition that misses the abort discards the leftover itself at the
// next stage.
func (e *Engine) abortAll(txn string) {
	ctx, cancel := context.WithTimeout(context.Background(), repairTimeout)
	defer cancel()
	_ = fan(len(e.parts), true, func(i int) error { return e.parts[i].Abort(ctx, txn) })
}

// validate applies the rules of live.(*Staged).Violations, lifted to
// the cross-partition whole: bounds are evaluated at the GLOBAL post-
// and pre-delta sizes; aligned constraints check per-partition groups
// (exactly the global groups — stage already reported the
// insert-touched maxima, the shrink recheck asks each partition's
// post-delta MaxGroup); non-aligned constraints union per-partition
// projection sets to measure the true group sizes. Violations come out
// in constraint order with the Group numbers a single-node engine
// applying the unsplit delta would report.
func (e *Engine) validate(ctx context.Context, txn string, v uint64, staged []*Staged, oldSize, newSize int) ([]access.Violation, error) {
	k := len(e.parts)
	var viols []access.Violation
	for ci, c := range e.Access.Constraints {
		bound := c.Card.Bound(newSize)
		shrunk := !c.Card.IsConst() && bound < c.Card.Bound(oldSize)
		touched := false
		for _, st := range staged {
			touched = touched || st.Constraints[ci].Touched
		}
		if !touched && !shrunk {
			continue
		}
		g := 0
		switch {
		case !e.place.aligned(c):
			// Without a shrunk bound only groups some partition's inserts
			// touched can have grown; measure each across all partitions.
			var keys []value.Key
			if !shrunk {
				seen := make(map[value.Key]bool)
				for _, st := range staged {
					for _, key := range st.Constraints[ci].InsertKeys {
						if !seen[key] {
							seen[key] = true
							keys = append(keys, key)
						}
					}
				}
				if len(keys) == 0 {
					continue
				}
			}
			groups := make([][]Group, k)
			err := fan(k, e.remote, func(i int) (err error) {
				groups[i], err = e.parts[i].Groups(ctx, txn, v, ci, keys, shrunk)
				return err
			})
			if err != nil {
				return nil, err
			}
			g = largestGroup(groups)
		case shrunk:
			// The bound dropped with |D|: re-check every group on every
			// partition, staged or not.
			maxes := make([]int, k)
			err := fan(k, e.remote, func(i int) (err error) {
				maxes[i], err = e.parts[i].MaxGroup(ctx, txn, v, ci)
				return err
			})
			if err != nil {
				return nil, err
			}
			for _, m := range maxes {
				g = max(g, m)
			}
		default:
			// Groups never split across partitions: the insert-touched
			// buckets' post-delta sizes are the global group sizes.
			for _, st := range staged {
				g = max(g, st.Constraints[ci].MaxInsert)
			}
		}
		if g > bound {
			viols = append(viols, access.Violation{Constraint: c, Group: g, Bound: bound})
		}
	}
	return viols, nil
}

// largestGroup is the size of the largest group once every partition's
// share of it is unioned: per-partition buckets hold distinct
// Y-projections, so the true |D_Y(X = ā)| of a group split across
// partitions is the size of their deduplicated union.
func largestGroup(parts [][]Group) int {
	// A group most often lives on one partition; only a second sighting
	// of its key pays for a set.
	type union struct {
		first []value.Key
		set   map[value.Key]struct{}
	}
	unions := make(map[value.Key]union)
	largest := 0
	for _, groups := range parts {
		for _, g := range groups {
			u, seen := unions[g.Key]
			n := len(g.Projs)
			if !seen {
				u.first = g.Projs
			} else {
				if u.set == nil {
					u.set = make(map[value.Key]struct{}, len(u.first)+len(g.Projs))
					for _, p := range u.first {
						u.set[p] = struct{}{}
					}
				}
				for _, p := range g.Projs {
					u.set[p] = struct{}{}
				}
				n = len(u.set)
			}
			unions[g.Key] = u
			largest = max(largest, n)
		}
	}
	return largest
}

// Query serves q through the planner engine against a scatter-gather
// view of the current snapshot: identical planning, admission control,
// fallbacks and streaming as core.Engine.Query. The static access
// bound (and so the -budget admission check) is the bound of the ONE
// plan execution, not K times it: a scattered fetch still retrieves at
// most the constraint's bound across all partitions combined, because
// the bound constrains the global group. An unreachable remote
// partition degrades the query to a structured refusal — never a torn
// or partial answer: the executor aborts at the first failed fetch and
// the scan fallback refuses unless every partition's dump completes.
func (e *Engine) Query(ctx context.Context, q core.Query, opts ...core.QueryOption) (*core.Result, error) {
	sn := e.snap.Load()
	if sn == nil {
		return nil, errNoInstance()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	src := &gatherSource{e: e, views: sn.views}
	// A traced request gets per-partition route/scatter accounting: the
	// fetchers bump counters (a remote fetch step asks its peers from one
	// goroutine each, so they can't open spans) and Trace.Finish folds the
	// totals into "shard N route|scatter" spans ("peer N …" for RPCs).
	// One local partition serves its index directly: nothing to count.
	if tr := obs.FromContext(ctx); tr != nil && (e.remote || len(e.parts) > 1) {
		src.sc = e.counters(tr, len(e.parts))
	}
	v := &core.View{
		Size:   sn.size,
		Source: src,
		Instance: func(ctx context.Context) (*data.Instance, error) {
			if len(sn.views) == 1 && !e.remote {
				// One local partition: its instance, nothing merged.
				return sn.instance(ctx, e.Schema)
			}
			sp := obs.FromContext(ctx).Start(e.mergeSpan)
			inst, err := sn.instance(ctx, e.Schema)
			if inst != nil {
				sp.SetRows(int64(inst.Size()))
			}
			sp.End()
			return inst, err
		},
	}
	return e.Planner.QueryView(ctx, q, v, opts...)
}

// Baseline evaluates q conventionally over the union of the partitions.
func (e *Engine) Baseline(q *cq.CQ, mode eval.Mode) (*eval.Result, error) {
	sn := e.snap.Load()
	if sn == nil {
		return nil, errNoInstance()
	}
	inst, err := sn.instance(context.Background(), e.Schema)
	if err != nil {
		return nil, err
	}
	return eval.CQ(q, inst, mode)
}

// Instance returns the union of the partitions' instances (materialized
// lazily, cached per snapshot), or nil before Load or when a partition
// is unreachable.
func (e *Engine) Instance() *data.Instance {
	if sn := e.snap.Load(); sn != nil {
		inst, _ := sn.instance(context.Background(), e.Schema)
		return inst
	}
	return nil
}

// PartitionKey returns the partition key of the named relation.
func (e *Engine) PartitionKey(rel string) []schema.Attribute {
	return append([]schema.Attribute(nil), e.place.keys[rel].attrs...)
}

// Stats aggregates across the partitions: global |D|, partition count,
// and the serving counters.
func (e *Engine) Stats() core.EngineStats {
	version := uint64(0)
	if sn := e.snap.Load(); sn != nil {
		version = sn.version
	}
	return e.EngineStats(len(e.parts), e.applies.Load(), version)
}

// Checkpoint persists the published version on every partition and
// compacts each WAL behind it, returning the version captured. It writes
// the snapshot's pinned views — never a partition's own newest version,
// which a commit fanout in flight may not complete — so Applies proceed
// concurrently. durable.ErrNotDurable if the partitions have no durable
// stores.
func (e *Engine) Checkpoint(ctx context.Context) (uint64, error) {
	sn := e.snap.Load()
	if sn == nil {
		return 0, errNoInstance()
	}
	csp := obs.FromContext(ctx).Start("checkpoint.write")
	err := fan(len(sn.views), true, func(i int) error { return sn.views[i].Checkpoint(ctx) })
	csp.End()
	if err != nil {
		return 0, err
	}
	return sn.version, nil
}

// Durable gives every partition of an in-process fleet its own
// durability directory, dir/shard-<i>, or dir itself for a fleet of one
// (the layout single-node deployments have always had): each WAL-logs
// its commits and checkpoints its share. If every directory already
// holds state, each partition recovers its newest committed version and the engine
// attaches to them like to any fleet — onto the minimum committed
// version, truncating what a crash mid-fanout left ahead (restored ==
// true). Directories where only SOME partitions have state — an initial
// load that crashed partway — report restored == false, so the caller
// re-ingests; Load restarts every partition's history, nothing
// committed is lost. Call once, before serving.
func (e *Engine) Durable(ctx context.Context, dir string, hook durable.Hook) (restored bool, err error) {
	var withState atomic.Int32
	err = fan(len(e.parts), true, func(i int) error {
		l, ok := e.parts[i].(*Local)
		if !ok {
			return fmt.Errorf("shard: partition %d is remote; its durability lives on its node", i)
		}
		pdir := dir
		if len(e.parts) > 1 {
			pdir = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		}
		ok, err := l.Durable(ctx, pdir, hook)
		if ok {
			withState.Add(1)
		}
		return err
	})
	if err == nil && int(withState.Load()) == len(e.parts) {
		restored, err = true, e.Attach(ctx)
	}
	if err != nil {
		_ = e.CloseDurable() // the open or recovery error is the one to report
		return false, err
	}
	return restored, nil
}

// CloseDurable detaches and closes every local partition's durable
// store. Safe to call when durability was never enabled.
func (e *Engine) CloseDurable() error {
	var first error
	for _, p := range e.parts {
		if l, ok := p.(*Local); ok {
			if err := l.CloseDurable(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
