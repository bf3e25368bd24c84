// Package specialize implements bounded query specialization (QSP,
// Section 5 of the paper): given a query Q that is not boundedly evaluable
// under A and a designated parameter set X, find a minimum tuple x̄ ⊆ X
// (|x̄| ≤ k) such that the specialized query Q(x̄ = c̄) is covered by A for
// ALL valuations c̄ — and hence boundedly evaluable (Corollary 3.13).
//
// Genericity is obtained by instantiating parameters with fresh, pairwise
// distinct constants: coverage depends only on which variables are constant
// variables (not on their values), and concrete valuations can only merge
// further equivalence classes, which never shrinks cov(Q,A). QSP is
// NP-complete for CQ (Theorem 5.3, by reduction from minimum set cover);
// the solver enumerates parameter subsets in ascending size, with an
// optional greedy mode for large parameter sets.
package specialize

import (
	"fmt"
	"sort"

	"repro/internal/access"
	"repro/internal/ainstance"
	"repro/internal/cover"
	"repro/internal/cq"
	"repro/internal/schema"
	"repro/internal/value"
)

// Options tunes the solver.
type Options struct {
	// Greedy switches from exact subset enumeration to a greedy heuristic
	// (add the parameter covering the most new variables first). The greedy
	// answer is sound (the returned set works) but may not be minimum.
	Greedy bool
	// CheckSatisfiable additionally verifies condition (b) of bounded
	// specialization: Q itself is A-satisfiable (which, per the paper's
	// lemma, is equivalent to some valuation yielding an A-satisfiable
	// specialization). Costs an A-instance enumeration.
	CheckSatisfiable bool
	// AInstance configures the satisfiability check.
	AInstance ainstance.Options
	// Cover configures coverage checks.
	Cover cover.Options
}

// maxSubsets caps exact enumeration.
const maxSubsets = 200000

// Result is the outcome of a QSP decision.
type Result struct {
	Found bool
	// Params is the chosen x̄ (sorted), empty when the query is already
	// covered.
	Params []string
	// Generic is the generically specialized query that was verified
	// covered (parameters pinned to fresh distinct constants).
	Generic *cq.CQ
	// Minimum reports whether Params is guaranteed minimum (exact search).
	Minimum bool
	// Tried counts candidate subsets examined.
	Tried int
	// Reason explains failure when !Found.
	Reason string
}

// WithParams builds the generic specialization of q: each parameter pinned
// to a fresh constant distinct from every constant of q and from the other
// parameters'.
func WithParams(q *cq.CQ, params []string) *cq.CQ {
	out := q.Clone()
	known := make(map[value.Value]bool)
	for _, c := range q.Constants() {
		known[c] = true
	}
	next := 0
	for _, p := range params {
		var v value.Value
		for {
			v = value.NewString(fmt.Sprintf("⟨%s:%d⟩", p, next))
			next++
			if !known[v] {
				break
			}
		}
		known[v] = true
		out.Eqs = append(out.Eqs, cq.Eq{L: cq.Var(p), R: cq.Const(v)})
	}
	return out
}

// CoveredWithParams reports whether instantiating exactly params makes q
// covered for all valuations (checked generically).
func CoveredWithParams(q *cq.CQ, a *access.Schema, s *schema.Schema, params []string, opt Options) (bool, *cq.CQ, error) {
	g := WithParams(q, params)
	res, err := cover.Check(g, a, s, opt.Cover)
	if err != nil {
		return false, nil, err
	}
	return res.Covered, g, nil
}

// Decide solves QSP: find x̄ ⊆ X with |x̄| ≤ k making Q(x̄=c̄) covered for
// all valuations c̄. Parameters must be variables of q.
func Decide(q *cq.CQ, a *access.Schema, s *schema.Schema, X []string, k int, opt Options) (*Result, error) {
	vars := make(map[string]bool)
	for _, v := range q.Vars() {
		vars[v] = true
	}
	for _, p := range X {
		if !vars[p] {
			return nil, fmt.Errorf("specialize: parameter %s is not a variable of %s", p, q.Label)
		}
	}
	if opt.CheckSatisfiable {
		sat, err := ainstance.Satisfiable(q, a, s, opt.AInstance)
		if err != nil {
			return nil, err
		}
		if !sat {
			return &Result{Reason: "query is not A-satisfiable: no sensible specialization exists (condition b)"}, nil
		}
	}
	res := &Result{}
	// Size 0: the query may already be covered.
	ok, g, err := CoveredWithParams(q, a, s, nil, opt)
	if err != nil {
		return nil, err
	}
	res.Tried++
	if ok {
		res.Found, res.Generic, res.Minimum = true, g, true
		return res, nil
	}
	params := append([]string(nil), X...)
	sort.Strings(params)
	if opt.Greedy {
		return greedy(q, a, s, params, k, opt, res)
	}
	return exact(q, a, s, params, k, opt, res)
}

// exact enumerates subsets in ascending size; the first hit is minimum.
func exact(q *cq.CQ, a *access.Schema, s *schema.Schema, params []string, k int, opt Options, res *Result) (*Result, error) {
	budget := maxSubsets
	n := len(params)
	if k > n {
		k = n
	}
	idx := make([]int, 0, k)
	var found []string
	var generic *cq.CQ
	var rec func(start, size int) (bool, error)
	rec = func(start, size int) (bool, error) {
		if len(idx) == size {
			if budget == 0 {
				return false, fmt.Errorf("specialize: subset budget exhausted (%d subsets)", maxSubsets)
			}
			budget--
			res.Tried++
			sel := make([]string, len(idx))
			for i, j := range idx {
				sel[i] = params[j]
			}
			ok, g, err := CoveredWithParams(q, a, s, sel, opt)
			if err != nil {
				return false, err
			}
			if ok {
				found, generic = sel, g
				return true, nil
			}
			return false, nil
		}
		for i := start; i < n; i++ {
			idx = append(idx, i)
			ok, err := rec(i+1, size)
			idx = idx[:len(idx)-1]
			if err != nil || ok {
				return ok, err
			}
		}
		return false, nil
	}
	for size := 1; size <= k; size++ {
		ok, err := rec(0, size)
		if err != nil {
			return nil, err
		}
		if ok {
			res.Found, res.Params, res.Generic, res.Minimum = true, found, generic, true
			return res, nil
		}
	}
	res.Reason = fmt.Sprintf("no parameter subset of size ≤ %d makes the query covered", k)
	return res, nil
}

// greedy adds, at each step, the parameter whose instantiation grows
// cov(Q,A) the most; ties break lexicographically. Sound but possibly
// non-minimum.
func greedy(q *cq.CQ, a *access.Schema, s *schema.Schema, params []string, k int, opt Options, res *Result) (*Result, error) {
	chosen := []string{}
	remaining := append([]string(nil), params...)
	for len(chosen) < k {
		bestVar, bestGain, bestIdx := "", -1, -1
		var bestGeneric *cq.CQ
		bestCovered := false
		for i, p := range remaining {
			sel := append(append([]string(nil), chosen...), p)
			res.Tried++
			g := WithParams(q, sel)
			cres, err := cover.Check(g, a, s, opt.Cover)
			if err != nil {
				return nil, err
			}
			gain := len(cres.Analysis.Covered)
			if cres.Covered {
				gain += 1 << 20 // a full cover beats any partial gain
			}
			if gain > bestGain {
				bestGain, bestVar, bestIdx = gain, p, i
				bestGeneric, bestCovered = g, cres.Covered
			}
		}
		if bestIdx < 0 {
			break
		}
		chosen = append(chosen, bestVar)
		remaining = append(remaining[:bestIdx:bestIdx], remaining[bestIdx+1:]...)
		if bestCovered {
			sort.Strings(chosen)
			res.Found, res.Params, res.Generic = true, chosen, bestGeneric
			return res, nil
		}
	}
	res.Reason = fmt.Sprintf("greedy search found no covering subset of size ≤ %d", k)
	return res, nil
}

// Instantiate builds the concrete specialized query Q(x̄ = c̄).
func Instantiate(q *cq.CQ, vals map[string]value.Value) *cq.CQ {
	out := q.Clone()
	keys := make([]string, 0, len(vals))
	for p := range vals {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	for _, p := range keys {
		out.Eqs = append(out.Eqs, cq.Eq{L: cq.Var(p), R: cq.Const(vals[p])})
	}
	return out
}

// DecideUCQ solves QSP for a union of CQs: one parameter tuple must make
// EVERY sub-query covered (parameters are shared across the union in
// parameterized applications).
func DecideUCQ(qs []*cq.CQ, a *access.Schema, s *schema.Schema, X []string, k int, opt Options) (*Result, error) {
	// Work over subsets: a subset works iff it works for all sub-queries.
	res := &Result{}
	params := append([]string(nil), X...)
	sort.Strings(params)
	n := len(params)
	if k > n {
		k = n
	}
	check := func(sel []string) (bool, error) {
		for _, q := range qs {
			inQ := make(map[string]bool)
			for _, v := range q.Vars() {
				inQ[v] = true
			}
			var local []string
			for _, p := range sel {
				if inQ[p] {
					local = append(local, p)
				}
			}
			ok, _, err := CoveredWithParams(q, a, s, local, opt)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		return true, nil
	}
	var idx []int
	var rec func(start, size int) (bool, error)
	rec = func(start, size int) (bool, error) {
		if len(idx) == size {
			res.Tried++
			sel := make([]string, len(idx))
			for i, j := range idx {
				sel[i] = params[j]
			}
			ok, err := check(sel)
			if err != nil {
				return false, err
			}
			if ok {
				res.Found, res.Params, res.Minimum = true, sel, true
			}
			return ok, nil
		}
		for i := start; i < n; i++ {
			idx = append(idx, i)
			ok, err := rec(i+1, size)
			idx = idx[:len(idx)-1]
			if err != nil || ok {
				return ok, err
			}
		}
		return false, nil
	}
	for size := 0; size <= k; size++ {
		ok, err := rec(0, size)
		if err != nil {
			return nil, err
		}
		if ok {
			return res, nil
		}
	}
	res.Reason = fmt.Sprintf("no parameter subset of size ≤ %d covers every sub-query", k)
	return res, nil
}

// FullyParameterizable implements Proposition 5.4's guarantee: when A
// covers the relational schema R (every relation has a constraint whose
// X ∪ Y spans all its attributes) and all variables of Q are parameters,
// Q can always be boundedly specialized. It reports whether the guarantee
// applies to (q, a, s).
func FullyParameterizable(q *cq.CQ, a *access.Schema, s *schema.Schema, X []string) bool {
	if !a.CoversSchema(s) {
		return false
	}
	have := make(map[string]bool)
	for _, p := range X {
		have[p] = true
	}
	for _, v := range q.Vars() {
		if !have[v] {
			return false
		}
	}
	return true
}
