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
	// size is the |D| of the latest restamp. Entries are normalized to it
	// on put, so a planning pass that read an older snapshot cannot land
	// a bound the concurrent restamp would have refreshed.
	//
	// guarded by mu
	size int
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
// constants are params, promoting it to most-recently-used. An entry
// computed for params serves as is; a bindable one serves any params
// when the caller rebinds its plan (rebind set). Any other entry is a
// miss: the caller recomputes the outcome, and its put replaces the
// entry.
func (c *planCache) get(key string, params []value.Value, rebind bool) (*planEntry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		if ent := el.Value.(*planEntry); rebind && ent.bindable || ent.sameParams(params) {
			c.hits++
			c.ll.MoveToFront(el)
			return ent, true
		}
	}
	c.misses++
	return nil, false
}

// put inserts (or refreshes) an entry, evicting the least-recently-used
// one beyond capacity. The entry's bound is normalized to the cache's
// current instance size first: planning runs outside the writer lock, so
// without this a put racing a Load/Apply could publish a bound computed
// against the pre-update size and have it served until the next update.
func (c *planCache) put(e *planEntry) {
	if c == nil {
		return
	}
	// Bind with the entry's own params rebinds nothing: it only checks
	// that every constant of the plan is one of them.
	e.bindable = e.p != nil && e.envelope == nil && plan.Bind(e.p, e.params, e.params) != nil
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.p != nil && e.bound.SizeHint != c.size {
		if planDependsOnSize(e.p) {
			b, err := plan.AccessBound(e.p, c.size)
			if err != nil {
				return // cannot normalize: skip caching rather than serve a stale bound
			}
			e.bound = b
		} else {
			e.bound.SizeHint = c.size
		}
	}
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

// restamp refreshes the cache for a new instance size (after Load or
// Apply). Plans and not-bounded verdicts are data-independent given the
// access schema, so entries survive; only a bound that embeds the |D|
// size hint — a plan fetching through a general-form constraint s(|D|) —
// is stale, and those entries are re-stamped with a bound recomputed at
// the new size rather than dropped. Hit/miss counters are cumulative and
// survive too. An entry whose bound cannot be recomputed (cannot happen
// for plans that bounded once, but guarded anyway) is evicted.
func (c *planCache) restamp(newSize int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.size = newSize
	var drop []*list.Element
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*planEntry)
		if ent.p == nil {
			continue // not-bounded / negative-envelope verdicts: size-free
		}
		restamped := *ent
		if planDependsOnSize(ent.p) {
			b, err := plan.AccessBound(ent.p, newSize)
			if err != nil {
				drop = append(drop, el)
				continue
			}
			restamped.bound = b
		} else {
			// The bound's values are size-independent; refresh only the
			// size hint it reports.
			restamped.bound.SizeHint = newSize
		}
		el.Value = &restamped
	}
	for _, el := range drop {
		c.ll.Remove(el)
		delete(c.items, el.Value.(*planEntry).key)
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
