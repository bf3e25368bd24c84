package core

import (
	"fmt"

	"repro/internal/cover"
	"repro/internal/plan"
	"repro/internal/ucq"
	"repro/internal/value"
)

// planUCQCached synthesizes the bounded plan of a covered UCQ and its
// bound at sizeHint, plus a cache-hit flag; the plan conforms to the UCQ
// grammar of Section 2 (unions only as the trailing operations).
//
// Outcomes are memoized in the plan cache keyed by the union's template
// key (ucq.KeyParams: the sorted sub-query templates, holes numbered
// across the union), so repeat unions — including sub-query
// permutations, α-renamed variants and variants that differ only in
// their constants — skip coverage checking and synthesis entirely.
// Non-covered verdicts are cached too (as NotBoundedError entries),
// mirroring the CQ path.
func (e *Engine) planUCQCached(u *ucq.UCQ, sizeHint int) (*plan.Plan, plan.Bound, bool, error) {
	var key string
	var params []value.Value
	if e.cache != nil {
		key, params = u.KeyParams()
		// The "ucq:" prefix keeps union keys disjoint from CQ keys.
		key = "ucq:" + key
		if ent, b, ok := e.cache.get(key, params, true, sizeHint); ok {
			if ent.notBounded != nil {
				// Copy so the refusal carries the caller's label without
				// mutating the shared cached entry.
				nb := *ent.notBounded
				nb.Label = u.Label
				return nil, plan.Bound{}, true, &nb
			}
			return ent.planFor(params, u.Label), b, true, nil
		}
	}
	p, b, err := e.planUCQUncached(u, sizeHint)
	if e.cache != nil {
		var nb *NotBoundedError
		switch {
		case err == nil:
			e.cache.put(&planEntry{key: key, params: params, p: p, bound: b})
		case asNotBounded(err, &nb):
			e.cache.put(&planEntry{key: key, params: params, notBounded: nb})
		}
	}
	return p, b, false, err
}

// planUCQUncached is the uncached union planning pipeline.
func (e *Engine) planUCQUncached(u *ucq.UCQ, sizeHint int) (*plan.Plan, plan.Bound, error) {
	res, err := u.Covered(e.Access, e.Schema, cover.Options{})
	if err != nil {
		return nil, plan.Bound{}, err
	}
	if !res.Covered {
		return nil, plan.Bound{}, &NotBoundedError{UCQCover: res, Label: u.Label}
	}
	p, err := plan.BuildUCQ(res)
	if err != nil {
		return nil, plan.Bound{}, err
	}
	p.Label = u.Label
	if err := p.ConformsTo(plan.LangUCQ); err != nil {
		return nil, plan.Bound{}, fmt.Errorf("core: internal: %w", err)
	}
	b, err := plan.AccessBound(p, sizeHint)
	if err != nil {
		return nil, plan.Bound{}, err
	}
	return p, b, nil
}
