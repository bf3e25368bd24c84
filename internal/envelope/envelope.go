// Package envelope implements query-driven approximation under access
// constraints (Section 4 of the paper): upper envelopes obtained as covered
// relaxations (UEP, Theorem 4.4) and lower envelopes obtained as covered,
// A-satisfiable k-expansions (LEP, Theorem 4.7), plus the FD-justified
// atom-splitting rewrite behind Example 4.5.
//
// An upper envelope Qu satisfies Q ⊑A Qu with |Qu(D) − Q(D)| ≤ Nu; a lower
// envelope Ql satisfies Ql ⊑A Q with |Q(D) − Ql(D)| ≤ Nl; both are
// boundedly evaluable. Boundedness of Q (Lemma 4.2) is necessary for either
// to exist: a CQ is bounded iff all its free variables are covered.
package envelope

import (
	"fmt"
	"sort"

	"repro/internal/access"
	"repro/internal/ainstance"
	"repro/internal/cover"
	"repro/internal/cq"
	"repro/internal/schema"
)

// Options tunes the envelope searches.
type Options struct {
	// AInstance configures A-satisfiability / A-equivalence checks.
	AInstance ainstance.Options
	// Cover configures coverage checks.
	Cover cover.Options
	// DisableSplitRewrite turns off the Example 4.5 extension in LEP,
	// restricting the search to strict k-expansions.
	DisableSplitRewrite bool
}

// maxCandidates caps the number of candidate queries examined per
// search.
const maxCandidates = 100000

// Bounded implements Lemma 4.2(b): a CQ Q is bounded under A iff all free
// variables of Q are covered by A.
func Bounded(q *cq.CQ, a *access.Schema, s *schema.Schema, opt Options) (bool, error) {
	an, err := cover.Analyze(q, a, s, opt.Cover)
	if err != nil {
		return false, err
	}
	for _, f := range an.Q.Free {
		if !an.InCov(f) {
			return false, nil
		}
	}
	return true, nil
}

// OutputBound bounds |Q(D)| over all D |= A for a bounded CQ: the product,
// over head positions, of each covered class's candidate bound (1 for
// pinned classes, |X-bound|·N for fetched classes). This is the constant cr
// of Section 4.2 and feeds the envelope approximation bounds Nu and Nl.
func OutputBound(q *cq.CQ, a *access.Schema, s *schema.Schema, opt Options) (int64, error) {
	an, err := cover.Analyze(q, a, s, opt.Cover)
	if err != nil {
		return 0, err
	}
	cls := an.EqPlus
	classBound := make(map[string]int64)
	get := func(v string) int64 {
		r := cls.Root(v)
		if cls.IsConstantVar(v) {
			return 1
		}
		if b, ok := classBound[r]; ok {
			return b
		}
		return int64(1) << 40 // effectively unbounded
	}
	for _, ap := range an.Applications {
		in := int64(1)
		for _, x := range ap.XVars {
			in = satMul(in, get(x))
		}
		out := satMul(in, int64(ap.Constraint.Card.Bound(0)))
		for _, y := range ap.YVars {
			r := cls.Root(y)
			if cur, ok := classBound[r]; !ok || out < cur {
				classBound[r] = out
			}
		}
	}
	total := int64(1)
	seen := make(map[string]bool)
	for _, f := range an.Q.Free {
		r := cls.Root(f)
		if seen[r] {
			continue
		}
		seen[r] = true
		total = satMul(total, get(f))
	}
	return total, nil
}

const satCap = int64(1) << 60

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > satCap/b {
		return satCap
	}
	return a * b
}

// Upper is the result of an upper-envelope search.
type Upper struct {
	Found bool
	// Qu is the covered relaxation (valid when Found).
	Qu *cq.CQ
	// Nu bounds |Qu(D) − Q(D)| (crudely, by |Qu(D)|).
	Nu int64
	// Reason explains failure when !Found.
	Reason string
}

// FindUpper decides UEP for a CQ: is there a relaxation of Q (a sub-query
// on the same free variables, Section 4.2) that is covered by A? Searched
// from largest relaxations down, so the first hit keeps the most atoms —
// the tightest such envelope. NP-complete in general (Theorem 4.4); the
// search enumerates atom subsets with a candidate cap.
func FindUpper(q *cq.CQ, a *access.Schema, s *schema.Schema, opt Options) (*Upper, error) {
	n := q.Normalize()
	// Lemma 4.2(a): no envelope unless Q is bounded. A relaxation only
	// loses atoms, so free variables must already be coverable... but
	// coverage may IMPROVE after dropping (never: cov is monotone in the
	// atom set for applications... dropping atoms can only remove
	// applications), so check boundedness first.
	bounded, err := Bounded(q, a, s, opt)
	if err != nil {
		return nil, err
	}
	if !bounded {
		return &Upper{Reason: "query is not bounded: some free variable is not covered (Lemma 4.2)"}, nil
	}
	m := len(n.Atoms)
	if m > 20 {
		return nil, fmt.Errorf("envelope: too many atoms (%d) for relaxation search", m)
	}
	budget := maxCandidates
	// Enumerate subsets by descending popcount.
	type cand struct {
		mask int
		bits int
	}
	var cands []cand
	for mask := (1 << m) - 1; mask >= 0; mask-- {
		cands = append(cands, cand{mask: mask, bits: popcount(mask)})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].bits > cands[j].bits })
	for _, c := range cands {
		if budget == 0 {
			break
		}
		budget--
		relax, ok := relaxation(n, c.mask)
		if !ok {
			continue
		}
		res, err := cover.Check(relax, a, s, opt.Cover)
		if err != nil {
			return nil, err
		}
		if !res.Covered {
			continue
		}
		nu, err := OutputBound(relax, a, s, opt)
		if err != nil {
			return nil, err
		}
		return &Upper{Found: true, Qu: relax, Nu: nu}, nil
	}
	return &Upper{Reason: "no covered relaxation exists"}, nil
}

// relaxation builds the sub-query keeping the atoms in mask. Equality atoms
// survive when their variables remain anchored; the query must stay safe
// (every free variable tied to an atom or a constant).
func relaxation(n *cq.CQ, mask int) (*cq.CQ, bool) {
	out := &cq.CQ{Label: n.Label + "_u", Free: append([]string(nil), n.Free...)}
	inAtoms := make(map[string]bool)
	for i, atom := range n.Atoms {
		if mask&(1<<i) == 0 {
			continue
		}
		out.Atoms = append(out.Atoms, atom.Clone())
		for _, t := range atom.Args {
			inAtoms[t.V] = true
		}
	}
	// Keep equality atoms whose variables are still anchored: var=const
	// survives always (it pins the variable); var=var survives when at
	// least one side occurs in a kept atom or is transitively pinned.
	cls := n.EqClassesPlus()
	anchored := func(v string) bool { return inAtoms[v] || cls.IsConstantVar(v) }
	for _, e := range n.Eqs {
		switch {
		case e.L.IsVar() && e.R.IsVar():
			if anchored(e.L.V) && anchored(e.R.V) {
				out.Eqs = append(out.Eqs, e)
			}
		case e.L.IsVar():
			out.Eqs = append(out.Eqs, e)
		case e.R.IsVar():
			out.Eqs = append(out.Eqs, e)
		}
	}
	// Safety: every free variable anchored.
	for _, f := range out.Free {
		if !anchored(f) {
			return nil, false
		}
	}
	return out, true
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Lower is the result of a lower-envelope search.
type Lower struct {
	Found bool
	// Ql is the covered, A-satisfiable envelope (valid when Found).
	Ql *cq.CQ
	// Nl bounds |Q(D) − Ql(D)| (crudely, by |Q(D)|'s output bound).
	Nl int64
	// Exact reports that Ql ≡A Q was verified (split-rewrite path), so the
	// "envelope" is in fact an exact bounded rewriting and Nl could be 0.
	Exact bool
	// Added counts atoms added beyond Q (≤ k for strict expansions).
	Added int
	// Reason explains failure when !Found.
	Reason string
}

// FindLower decides LEP for a CQ: is there a k-expansion of Q (Q plus at
// most k extra relation atoms, Section 4.3) that is covered by A and
// A-satisfiable? NP-complete (Theorem 4.7). Candidate atoms are generated
// goal-directedly: for each constraint, atoms that place a problem variable
// in the Y-positions with covered X-positions. When strict expansion fails
// and the query's troubles are unindexed atoms, the Example 4.5 atom-split
// rewrite is attempted and verified A-equivalent via A-instances.
func FindLower(q *cq.CQ, a *access.Schema, s *schema.Schema, k int, opt Options) (*Lower, error) {
	n := q.Normalize()
	bounded, err := Bounded(q, a, s, opt)
	if err != nil {
		return nil, err
	}
	if !bounded {
		return &Lower{Reason: "query is not bounded: some free variable is not covered (Lemma 4.2)"}, nil
	}
	nl, err := OutputBound(n, a, s, opt)
	if err != nil {
		return nil, err
	}

	// Breadth-first over expansions: frontier of queries, each extended by
	// one candidate atom per step, up to k additions.
	type node struct {
		q     *cq.CQ
		added int
	}
	frontier := []node{{q: n, added: 0}}
	budget := maxCandidates
	seen := map[string]bool{n.String(): true}
	fresh := 0
	for len(frontier) > 0 && budget > 0 {
		next := frontier[0]
		frontier = frontier[1:]
		budget--
		res, err := cover.Check(next.q, a, s, opt.Cover)
		if err != nil {
			return nil, err
		}
		if res.Covered {
			sat, err := ainstance.Satisfiable(next.q, a, s, opt.AInstance)
			if err == nil && sat {
				return &Lower{Found: true, Ql: next.q, Nl: nl, Added: next.added}, nil
			}
			if err != nil {
				// Enumeration too large: accept with a satisfiability
				// caveat only if it is the unmodified query (added == 0)?
				// No — A-satisfiability is part of LEP; skip.
				continue
			}
		}
		if next.added == k {
			continue
		}
		for _, atom := range candidateAtoms(next.q, res, a, s, &fresh) {
			exp := next.q.Clone()
			exp.Label = n.Label + "_l"
			exp.Atoms = append(exp.Atoms, atom)
			key := exp.String()
			if !seen[key] {
				seen[key] = true
				frontier = append(frontier, node{q: exp, added: next.added + 1})
			}
		}
	}

	if !opt.DisableSplitRewrite {
		if lw, err := trySplitRewrite(n, a, s, nl, opt); err == nil && lw != nil {
			return lw, nil
		}
	}
	return &Lower{Reason: fmt.Sprintf("no covered, A-satisfiable %d-expansion found", k)}, nil
}

// candidateAtoms proposes atoms that could repair the coverage failures in
// res: for each constraint R(X -> Y, N), atoms placing an uncovered
// problem variable at a Y-position with all X-positions filled by covered
// variables or the problem atom's own terms.
func candidateAtoms(q *cq.CQ, res *cover.Result, a *access.Schema, s *schema.Schema, fresh *int) []cq.Atom {
	an := res.Analysis
	// Problem variables: uncovered free variables, condition-(b) violators,
	// and uncovered X-position variables of unindexed atoms.
	problems := map[string]bool{}
	for _, v := range res.UncoveredFree {
		problems[v] = true
	}
	for _, v := range res.BadUncovered {
		problems[v] = true
	}
	for _, ai := range res.Atoms {
		if ai.Indexed {
			continue
		}
		for _, t := range q.Atoms[ai.AtomIdx].Args {
			if !an.Covered[t.V] && !an.ConstantVars[t.V] {
				problems[t.V] = true
			}
		}
	}
	var coveredVars []string
	for v := range an.Covered {
		coveredVars = append(coveredVars, v)
	}
	sort.Strings(coveredVars)

	var out []cq.Atom
	for p := range problems {
		for _, c := range a.Constraints {
			rs, ok := s.Relation(c.Rel)
			if !ok {
				continue
			}
			for _, yAttr := range c.Y {
				yPos := rs.AttrIndex(yAttr)
				// Fill X positions with covered variables (cartesian,
				// capped), others fresh.
				fills := fillX(c.X, coveredVars, 64)
				for _, fill := range fills {
					args := make([]cq.Term, rs.Arity())
					okAtom := true
					for i := range args {
						attr := rs.Attrs[i]
						if i == yPos {
							args[i] = cq.Var(p)
							continue
						}
						if xi := attrIndex(c.X, attr); xi >= 0 {
							args[i] = cq.Var(fill[xi])
							if fill[xi] == p {
								okAtom = false
							}
							continue
						}
						*fresh++
						args[i] = cq.Var(fmt.Sprintf("_e%d", *fresh))
					}
					if okAtom {
						out = append(out, cq.Atom{Rel: c.Rel, Args: args})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// fillX enumerates assignments of covered variables to the X attributes,
// capped at limit combinations.
func fillX(x []schema.Attribute, covered []string, limit int) [][]string {
	if len(x) == 0 {
		return [][]string{nil}
	}
	if len(covered) == 0 {
		return nil
	}
	var out [][]string
	var rec func(cur []string)
	rec = func(cur []string) {
		if len(out) >= limit {
			return
		}
		if len(cur) == len(x) {
			out = append(out, append([]string(nil), cur...))
			return
		}
		for _, v := range covered {
			rec(append(cur, v))
		}
	}
	rec(nil)
	return out
}

func attrIndex(as []schema.Attribute, a schema.Attribute) int {
	for i, b := range as {
		if a == b {
			return i
		}
	}
	return -1
}

// trySplitRewrite implements the Example 4.5 pattern: replace each
// unindexed atom R(w̄) by one copy per constraint on R, keeping the
// variables at that constraint's X ∪ Y positions and freshening the rest;
// accept only when the rewriting is verified A-equivalent to Q (so it is a
// lower — indeed exact — envelope) and is covered and A-satisfiable.
func trySplitRewrite(n *cq.CQ, a *access.Schema, s *schema.Schema, nl int64, opt Options) (*Lower, error) {
	res, err := cover.Check(n, a, s, opt.Cover)
	if err != nil {
		return nil, err
	}
	out := n.Clone()
	out.Label = n.Label + "_l"
	fresh := 0
	changed := false
	var atoms []cq.Atom
	for _, ai := range res.Atoms {
		atom := n.Atoms[ai.AtomIdx]
		if ai.Indexed {
			atoms = append(atoms, atom)
			continue
		}
		cs := a.ForRelation(atom.Rel)
		if len(cs) == 0 {
			return nil, nil // nothing to split against
		}
		rs, _ := s.Relation(atom.Rel)
		for _, c := range cs {
			copyAtom := atom.Clone()
			for i := range copyAtom.Args {
				if !c.Covers(rs.Attrs[i]) {
					fresh++
					copyAtom.Args[i] = cq.Var(fmt.Sprintf("_s%d", fresh))
				}
			}
			atoms = append(atoms, copyAtom)
		}
		changed = true
	}
	if !changed {
		return nil, nil
	}
	out.Atoms = atoms
	cres, err := cover.Check(out, a, s, opt.Cover)
	if err != nil || !cres.Covered {
		return nil, nil
	}
	equiv, err := ainstance.Equivalent(out, n, a, s, opt.AInstance)
	if err != nil || !equiv {
		return nil, nil
	}
	sat, err := ainstance.Satisfiable(out, a, s, opt.AInstance)
	if err != nil || !sat {
		return nil, nil
	}
	return &Lower{Found: true, Ql: out, Nl: nl, Exact: true, Added: len(atoms) - len(n.Atoms)}, nil
}
