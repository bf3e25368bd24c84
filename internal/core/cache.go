package core

import (
	"container/list"
	"slices"
	"sync"

	"repro/internal/bep"
	"repro/internal/envelope"
	"repro/internal/plan"
	"repro/internal/value"
)

// DefaultPlanCacheSize is the plan-cache capacity when Options.PlanCache
// is zero.
const DefaultPlanCacheSize = 256

// planEntry is one cached planning outcome for a canonical query shape:
// either a synthesized plan with its static access bound, or the
// not-bounded decision. Entries are immutable once cached — callers must
// copy before mutating (Engine.Plan copies the Plan header to relabel it).
type planEntry struct {
	key        string
	p          *plan.Plan
	bound      plan.Bound
	notBounded *NotBoundedError
	// dec is the BEP decision behind a bounded CQ entry, kept so Explain
	// can report diagnostics at cache speed (nil for UCQ entries; the
	// not-bounded case carries its decision inside notBounded).
	dec *bep.Decision
	// envelope is set on "env:" entries: the memoized upper-envelope
	// search outcome for a not-bounded query shape (nil plan + nil
	// envelope = no envelope exists).
	envelope *envelope.Upper
	// params are the constants the entry was computed for, one per hole
	// of its template key (cq.KeyParams).
	params []value.Value
	// bindable marks an entry whose plan serves every query of its key,
	// rebound to the query's params (plan.Bind). Every other entry embeds
	// the constants it was computed for — a not-bounded verdict's
	// diagnostics, an envelope's Qu — and serves its own params only.
	// dec embeds them too, so a rebound plan is served without it.
	bindable bool
	// sized marks a plan whose bound is a function of |D| — some fetch
	// goes through a general-form constraint s(|D|) — so bound holds
	// only at its own SizeHint.
	sized bool
}

// boundAt is the entry's bound at instance size size: the cached bound
// re-labelled with size, or — for a size-dependent plan asked at
// another size — recomputed at it. Entries thus hold no |D| of their
// own: every request gets the bound of the version it executes.
func (ent *planEntry) boundAt(size int) (plan.Bound, error) {
	if ent.sized && size != ent.bound.SizeHint {
		return plan.AccessBound(ent.p, size)
	}
	b := ent.bound
	b.SizeHint = size
	return b, nil
}

// sameParams reports whether the entry was computed for params.
func (ent *planEntry) sameParams(params []value.Value) bool {
	return slices.Equal(ent.params, params)
}

// planFor returns the entry's plan for a query of its key with the
// given params and label: as cached when the params are the entry's own,
// rebound to them otherwise. Only bindable entries may be asked for
// other params.
func (ent *planEntry) planFor(params []value.Value, label string) *plan.Plan {
	if !ent.sameParams(params) {
		if p := plan.Bind(ent.p, ent.params, params); p != ent.p {
			p.Label = label // a fresh copy: the shared entry is untouched
			return p
		}
	}
	return relabel(ent.p, label)
}

// CacheStats reports plan-cache effectiveness counters.
type CacheStats struct {
	// Hits and Misses count plan-cache lookups, cumulatively: the
	// counters survive Load and Apply.
	Hits, Misses int64
	// Entries is the current number of cached shapes.
	Entries int
}

// planCache is a concurrency-safe LRU cache of planning outcomes keyed by
// template key (cq.KeyParams): one entry per query shape, whatever its
// constants. All methods are safe for concurrent use.
type planCache struct {
	mu       sync.Mutex
	capacity int                      // immutable after newPlanCache
	ll       *list.List               // guarded by mu; front = most recently used; values are *planEntry
	items    map[string]*list.Element // guarded by mu
	hits     int64                    // guarded by mu
	misses   int64                    // guarded by mu
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		return nil
	}
	return &planCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// get returns the entry for key when it can serve a query whose
// constants are params, with its bound at instance size size (boundAt),
// promoting it to most-recently-used. An entry computed for params
// serves as is; a bindable one serves any params when the caller
// rebinds its plan (rebind set). Any other entry — or one whose bound
// cannot be recomputed at size — is a miss: the caller recomputes the
// outcome, and its put replaces the entry.
func (c *planCache) get(key string, params []value.Value, rebind bool, size int) (*planEntry, plan.Bound, bool) {
	if c == nil {
		return nil, plan.Bound{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		if ent := el.Value.(*planEntry); rebind && ent.bindable || ent.sameParams(params) {
			if b, err := ent.boundAt(size); err == nil {
				c.hits++
				c.ll.MoveToFront(el)
				return ent, b, true
			}
		}
	}
	c.misses++
	return nil, plan.Bound{}, false
}

// put inserts (or refreshes) an entry, evicting the least-recently-used
// one beyond capacity.
func (c *planCache) put(e *planEntry) {
	if c == nil {
		return
	}
	// Bind with the entry's own params rebinds nothing: it only checks
	// that every constant of the plan is one of them.
	e.bindable = e.p != nil && e.envelope == nil && plan.Bind(e.p, e.params, e.params) != nil
	e.sized = e.p != nil && planDependsOnSize(e.p)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.items[e.key] = c.ll.PushFront(e)
	for c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*planEntry).key)
	}
}

// planDependsOnSize reports whether p's static bound is a function of
// |D|: true iff some fetch goes through a general-form constraint.
func planDependsOnSize(p *plan.Plan) bool {
	for _, op := range p.Steps {
		if f, ok := op.(plan.FetchOp); ok && !f.Constraint.Card.IsConst() {
			return true
		}
	}
	return false
}

// stats snapshots the counters.
func (c *planCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.ll.Len()}
}
