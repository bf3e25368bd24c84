// Package ucq gives unions of conjunctive queries (UCQ) a first-class
// type: Q = Q1 ∪ ... ∪ Qk with all sub-queries sharing one head arity
// (Section 2 of the paper). It wraps the per-sub-query machinery —
// validation, classical containment, coverage, bounded plans, and
// evaluation — behind one surface.
package ucq

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/access"
	"repro/internal/cover"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/value"
)

// UCQ is a union of CQ sub-queries.
type UCQ struct {
	Label string
	Subs  []*cq.CQ
}

// New builds a UCQ from sub-queries, checking they agree on arity.
func New(label string, subs ...*cq.CQ) (*UCQ, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("ucq: %s: a UCQ needs at least one sub-query", label)
	}
	arity := len(subs[0].Free)
	for _, s := range subs[1:] {
		if len(s.Free) != arity {
			return nil, fmt.Errorf("ucq: %s: sub-queries disagree on arity (%d vs %d)",
				label, arity, len(s.Free))
		}
	}
	return &UCQ{Label: label, Subs: subs}, nil
}

// Arity returns the head width.
func (u *UCQ) Arity() int { return len(u.Subs[0].Free) }

// Validate checks every sub-query against the schema.
func (u *UCQ) Validate(s *schema.Schema) error {
	for _, sub := range u.Subs {
		if err := sub.Validate(s); err != nil {
			return fmt.Errorf("ucq: %s: %w", u.Label, err)
		}
	}
	return nil
}

// String renders the union of rule forms.
func (u *UCQ) String() string {
	parts := make([]string, len(u.Subs))
	for i, s := range u.Subs {
		parts[i] = s.String()
	}
	return strings.Join(parts, "  ∪  ")
}

// Eval computes the union's answers by conventional evaluation.
func (u *UCQ) Eval(d *data.Instance, mode eval.Mode) (*eval.Result, error) {
	return eval.UCQ(u.Subs, d, mode)
}

// Contains decides classical containment u ⊆ v via Sagiv–Yannakakis:
// every sub-query of u is contained in SOME sub-query of v.
func Contains(u, v *UCQ) bool {
	for _, qi := range u.Subs {
		ok := false
		for _, qj := range v.Subs {
			if cq.Contains(qi, qj) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Equivalent decides classical equivalence.
func Equivalent(u, v *UCQ) bool { return Contains(u, v) && Contains(v, u) }

// Covered runs the covered-UCQ check (Lemma 3.6 / Theorem 3.14).
func (u *UCQ) Covered(a *access.Schema, s *schema.Schema, opt cover.Options) (*cover.UCQResult, error) {
	return cover.CheckUCQ(u.Subs, a, s, opt)
}

// QueryLabel implements the serving-layer Query interface of
// internal/core.
func (u *UCQ) QueryLabel() string { return u.Label }

// QueryCQs returns the union's sub-queries — its UCQ normal form is
// itself.
func (u *UCQ) QueryCQs() ([]*cq.CQ, error) { return u.Subs, nil }

// CanonicalKey returns the union's plan-cache key: the template
// KeyParams renders, without its params.
func (u *UCQ) CanonicalKey() string {
	k, _ := u.KeyParams()
	return k
}

// KeyParams returns the union's template key and the constants that
// fill its holes: the sub-queries' template keys (cq.KeyParams), sorted,
// with holes numbered across the whole union so a constant two
// sub-queries share is one hole. Like the CQ key it is sound for plan
// caching — two UCQs with equal keys are the same union up to
// bound-variable renaming, sub-query order and a kind-preserving
// bijection of their params — and incomplete (semantically equivalent
// unions may produce distinct keys, costing a cache miss, never a wrong
// answer). Because sub-query order is normalized away, a cached union
// plan may emit rows (and carry column names) in the order of the first
// variant that was synthesized; union answers are sets, so the rows
// themselves are identical.
func (u *UCQ) KeyParams() (string, []value.Value) {
	keys := make([]string, len(u.Subs))
	order := make([]int, len(u.Subs))
	for i, s := range u.Subs {
		keys[i] = s.CanonicalKey()
		order[i] = i
	}
	// The sort reads the sub-queries' own keys, which never look at a
	// constant's value, so neither does the union's hole numbering.
	slices.SortStableFunc(order, func(i, j int) int { return strings.Compare(keys[i], keys[j]) })
	var b strings.Builder
	var params []value.Value
	for n, i := range order {
		if n > 0 {
			b.WriteString(" ∪ ")
		}
		params = u.Subs[i].WriteKey(&b, params)
	}
	return b.String(), params
}
