package plan

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/cover"
	"repro/internal/schema"
	"repro/internal/value"
)

// Empty returns the plan that answers an A-unsatisfiable query: a single
// literal with no rows over the given head columns.
func Empty(label string, outCols []string) *Plan {
	return &Plan{
		Label:   label,
		Steps:   []Op{ConstOp{Cols: append([]string(nil), outCols...)}},
		OutCols: append([]string(nil), outCols...),
	}
}

// NotCoveredError reports that plan synthesis was asked for a query that
// is not covered; the embedded diagnostics say why.
type NotCoveredError struct {
	Result *cover.Result
}

func (e *NotCoveredError) Error() string {
	return "plan: query is not covered by the access schema:\n" + e.Result.Explain()
}

// Build synthesizes a boundedly evaluable query plan for a covered CQ,
// following the constructive proof of Theorem 3.11 but fetching only what
// the proof needs. The plan is its fetches: each reads its X keys
// straight from the accumulated table acc and extends acc's rows with
// what it fetched (FetchOp), so each step's output is the next acc.
//
//   - Seed acc with the plan's parameter row: one literal row holding the
//     query's constants, a column per pinned class. The constants live
//     nowhere else in the plan, so Bind rebinds that row alone.
//   - Replay the cov(Q,A) fixpoint as fetches that enumerate candidate
//     values for covered classes. A fetch keeps only the Y classes some
//     later step reads (the head, a class occurring more than once, the X
//     of any fetch); an application that binds no new read class is
//     skipped.
//   - Verify every relation atom through its indexing constraint (a
//     semijoin). An atom the fixpoint already fetched through the same
//     constraint is verified by that fetch and needs no step of its own.
//     Every other check runs as soon as its columns are bound — after the
//     seed or after the fetch that binds its last column — so selective
//     checks shrink the table before the next fan-out; any left over run
//     at the end.
//   - Project onto the head.
//
// Every step but the last is an input of a later one. A-unsatisfiable
// queries (conflicting equalities) yield the empty plan. Non-covered
// queries yield NotCoveredError with diagnostics.
func Build(res *cover.Result) (*Plan, error) {
	an := res.Analysis
	q := an.Q
	// Unsatisfiable: the empty plan answers the query on every D |= A.
	if q.Canonicalize().Unsat {
		return Empty(q.Label, q.Free), nil
	}
	if !res.Covered {
		return nil, &NotCoveredError{Result: res}
	}

	p := &Plan{Label: q.Label, OutCols: append([]string(nil), q.Free...)}
	b := &builder{plan: p}
	cls := an.EqPlus
	rep := cls.Root
	reps := func(vs []string) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = rep(v)
		}
		return out
	}

	// The verifications: every atom through its indexing constraint, with
	// unconstrained singletons dropped from the Y side.
	freeSet := make(map[string]bool, len(q.Free))
	for _, f := range q.Free {
		freeSet[f] = true
	}
	type check struct {
		key   [2]int  // (AtomIdx, ConstraintIdx)
		fetch FetchOp // Input is set when emitted
		done  bool
	}
	checks := make([]check, len(res.Atoms))
	for i, ai := range res.Atoms {
		atom := q.Atoms[ai.AtomIdx]
		c := an.Access.Constraints[ai.ConstraintIdx]
		rs, _ := an.Schema.Relation(atom.Rel)
		xreps := make([]string, len(c.X))
		for j, a := range c.X {
			xreps[j] = rep(atom.Args[rs.AttrIndex(a)].V)
		}
		yout := make([]string, len(c.Y))
		for j, a := range c.Y {
			if v := atom.Args[rs.AttrIndex(a)].V; freeSet[v] || an.Occurs[v] > 1 {
				yout[j] = rep(v)
			}
		}
		checks[i] = check{key: [2]int{ai.AtomIdx, ai.ConstraintIdx},
			fetch: FetchOp{Constraint: c, XCols: xreps, YOut: yout}}
	}

	// read holds the classes some step reads after they are bound: the
	// head, any class occurring more than once, and the X of any fetch.
	read := make(map[string]bool)
	for v, n := range an.Occurs {
		if n > 1 || freeSet[v] {
			read[rep(v)] = true
		}
	}
	for _, ck := range checks {
		for _, x := range ck.fetch.XCols {
			read[x] = true
		}
	}
	for _, ap := range an.Applications {
		for _, x := range ap.XVars {
			read[rep(x)] = true
		}
	}

	// Seed: the parameter row, one column per pinned class that the query
	// mentions. bound mirrors acc's columns, kept up to date as acc grows.
	bound := make(map[string]bool)
	seed := ConstOp{Rows: [][]value.Value{nil}}
	for _, v := range q.Vars() {
		if r := rep(v); !bound[r] && cls.IsConstantVar(v) {
			bound[r] = true
			seed.Cols = append(seed.Cols, r)
			seed.Rows[0] = append(seed.Rows[0], cls.ConstOf(v))
		}
	}
	acc := b.emit(seed)
	// tuples holds, per atom, what the latest fetch on it bound: in each
	// row that fetch output, these columns hold these attributes of one
	// tuple. A later fetch on the atom keyed by that tuple inherits them.
	tuples := make(map[int]map[schema.Attribute]string)
	emitFetch := func(atom int, ft FetchOp) {
		prev, key := tuples[atom], tuples[atom] != nil
		for j, a := range ft.Constraint.X {
			key = key && prev[a] == ft.XCols[j]
		}
		if key {
			ft.Tuple = maps.Clone(prev)
			maps.DeleteFunc(ft.Tuple, func(_ schema.Attribute, c string) bool { return !slices.Contains(b.cols(ft.Input), c) })
		}
		tc := make(map[schema.Attribute]string)
		cols := slices.Concat(ft.XCols, ft.YOut)
		for i, a := range slices.Concat(ft.Constraint.X, ft.Constraint.Y) {
			if cols[i] != "" {
				tc[a] = cols[i]
			}
		}
		tuples[atom] = tc
		acc = b.emit(ft)
	}
	verify := func(ck *check) {
		ck.done = true
		keep := b.cols(acc)
		ft := ck.fetch
		ft.Input = acc
		emitFetch(ck.key[0], ft)
		// Drop any throwaway columns the verification introduced.
		if len(b.cols(acc)) != len(keep) {
			acc = b.emit(ProjectOp{Input: acc, Cols: keep})
		}
	}
	ready := func(ck *check) bool {
		for _, x := range ck.fetch.XCols {
			if !bound[x] {
				return false
			}
		}
		for _, y := range ck.fetch.YOut {
			if y != "" && !bound[y] {
				return false
			}
		}
		return true
	}
	// filter emits every pending verification whose columns are all bound,
	// or all of them when final.
	filter := func(final bool) {
		for i := range checks {
			if ck := &checks[i]; !ck.done && (final || ready(ck)) {
				verify(ck)
			}
		}
	}
	filter(false)

	// Phase 1: replay the fixpoint applications as fetches, extending the
	// accumulated table with candidate values for each covered class.
	for _, ap := range an.Applications {
		xreps := reps(ap.XVars)
		for i, x := range ap.XVars {
			if an.ConstantVars[x] && !bound[xreps[i]] {
				// Pinned classes were all seeded above.
				return nil, fmt.Errorf("plan: internal: pinned class %s not seeded", xreps[i])
			}
		}
		// Keep only the Y classes a later step reads; skip applications
		// that bind none of those anew (they only widened cov through eq⁺,
		// or covered a class nothing reads).
		yout := reps(ap.YVars)
		anyNew := false
		for i, y := range yout {
			if !read[y] {
				yout[i] = ""
			} else if !bound[y] {
				anyNew = true
			}
		}
		if !anyNew {
			continue
		}
		emitFetch(ap.AtomIdx, FetchOp{Input: acc, Constraint: ap.Constraint, XCols: xreps, YOut: yout})
		for _, c := range b.cols(acc) {
			bound[c] = true
		}
		// This fetch already verified its atom through its constraint.
		for i := range checks {
			if checks[i].key == [2]int{ap.AtomIdx, ap.ConstraintIdx} {
				checks[i].done = true
			}
		}
		filter(false)
	}

	// Phase 2: the verifications no fetch has performed or bound yet.
	filter(true)

	// Phase 3: project onto the head, renaming class representatives back
	// to the free variable names (repeats allowed, e.g. Q(x, x)).
	b.emit(ProjectOp{Input: acc, Cols: reps(q.Free), As: append([]string(nil), q.Free...)})
	return p, nil
}

// BuildUCQ synthesizes a plan for a covered UCQ: per Lemma 3.6 the union of
// the covered sub-queries' plans answers the whole query (dominated
// sub-queries contribute no additional answers on instances satisfying A).
func BuildUCQ(ures *cover.UCQResult) (*Plan, error) {
	if !ures.Covered {
		return nil, fmt.Errorf("plan: UCQ is not covered by the access schema")
	}
	p := &Plan{}
	b := &builder{plan: p}
	last := -1
	for i, st := range ures.Subs {
		if st != cover.SubCovered {
			continue
		}
		sub, err := Build(ures.SubResults[i])
		if err != nil {
			return nil, err
		}
		if p.Label == "" {
			p.Label = sub.Label
			p.OutCols = sub.OutCols
		}
		// Splice the sub-plan with shifted step indices.
		offset := len(p.Steps)
		for _, op := range sub.Steps {
			b.emit(shiftOp(op, offset))
		}
		end := len(p.Steps) - 1
		if last >= 0 {
			last = b.emit(UnionOp{L: last, R: end})
		} else {
			last = end
		}
	}
	if last < 0 {
		return nil, fmt.Errorf("plan: UCQ has no covered sub-queries")
	}
	return p, nil
}

type builder struct {
	plan *Plan
	// colsOf tracks the column list of each emitted step.
	colsOf [][]string
}

func (b *builder) emit(op Op) int {
	b.plan.Steps = append(b.plan.Steps, op)
	b.colsOf = append(b.colsOf, b.deriveCols(op))
	return len(b.plan.Steps) - 1
}

func (b *builder) cols(i int) []string { return b.colsOf[i] }

func (b *builder) deriveCols(op Op) []string {
	switch o := op.(type) {
	case ConstOp:
		return append([]string(nil), o.Cols...)
	case FetchOp:
		return o.appendOutCols(nil, b.cols(o.Input))
	case ProjectOp:
		if o.As != nil {
			return append([]string(nil), o.As...)
		}
		return append([]string(nil), o.Cols...)
	case UnionOp:
		return b.cols(o.L)
	default:
		return nil
	}
}

func shiftOp(op Op, k int) Op {
	switch o := op.(type) {
	case FetchOp:
		o.Input += k
		return o
	case ProjectOp:
		o.Input += k
		return o
	case UnionOp:
		o.L += k
		o.R += k
		return o
	default:
		return op
	}
}
