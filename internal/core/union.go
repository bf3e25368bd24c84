package core

import (
	"fmt"

	"repro/internal/bep"
	"repro/internal/cq"
	"repro/internal/plan"
	"repro/internal/ucq"
	"repro/internal/value"
)

// CheckBoundedUCQ runs the BEP checker on a union (Lemma 3.6).
func (e *Engine) CheckBoundedUCQ(u *ucq.UCQ) (*bep.UCQDecision, error) {
	return bep.DecideUCQ(u.Subs, e.Access, e.Schema, e.Opts.BEP)
}

// PlanUCQ synthesizes the bounded plan of a covered UCQ and its static
// bound; the plan conforms to the UCQ grammar of Section 2 (unions only as
// the trailing operations).
//
// Outcomes are memoized in the plan cache keyed by the union's template
// key (ucq.KeyParams: the sorted sub-query templates, holes numbered
// across the union), so repeat unions — including sub-query
// permutations, α-renamed variants and variants that differ only in
// their constants — skip coverage checking and synthesis entirely.
func (e *Engine) PlanUCQ(u *ucq.UCQ) (*plan.Plan, plan.Bound, error) {
	p, b, _, err := e.planUCQCached(u, e.sizeHint())
	return p, b, err
}

// planUCQCached is PlanUCQ plus a cache-hit flag. Non-covered verdicts
// are cached too (as NotBoundedError entries), mirroring the CQ path.
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
	res, err := u.Covered(e.Access, e.Schema, e.Opts.Cover)
	if err != nil {
		return nil, plan.Bound{}, err
	}
	if !res.Covered {
		return nil, plan.Bound{}, &NotBoundedError{UCQCover: res, Label: u.Label}
	}
	p, err := plan.BuildUCQ(res, e.Opts.Plan)
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

// CoverageReport tallies BEP verdicts over a workload (the E4-style
// "how much of this application is boundedly evaluable" summary).
type CoverageReport struct {
	Total int
	// Covered counts queries covered as written.
	Covered int
	// Rewritten counts queries bounded only via an A-equivalent rewrite.
	Rewritten int
	// Empty counts A-unsatisfiable queries (bounded via the empty plan).
	Empty int
	// Unknown counts queries the checker could not bound.
	Unknown int
}

// Bounded returns how many queries are boundedly evaluable.
func (r CoverageReport) Bounded() int { return r.Covered + r.Rewritten + r.Empty }

// Rate returns the bounded fraction in [0, 1].
func (r CoverageReport) Rate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Bounded()) / float64(r.Total)
}

// ClassifyWorkload runs the BEP checker over every query and tallies the
// verdicts.
func (e *Engine) ClassifyWorkload(qs []*cq.CQ) (CoverageReport, error) {
	var r CoverageReport
	for _, q := range qs {
		r.Total++
		res, err := e.IsCovered(q)
		if err != nil {
			return r, err
		}
		if res.Covered {
			r.Covered++
			continue
		}
		dec, err := e.CheckBounded(q)
		if err != nil {
			return r, err
		}
		switch dec.Verdict {
		case bep.Bounded:
			r.Rewritten++
		case bep.BoundedEmpty:
			r.Empty++
		default:
			r.Unknown++
		}
	}
	return r, nil
}
