package cq

// Canonical is a CQ frozen modulo its equality atoms: every variable is
// replaced by its eq⁺ class representative, and pinned classes by their
// constant. It is the tableau representation (T_Q, u) the paper's
// containment machinery works on.
type Canonical struct {
	// Head is u: the head tuple over representatives/constants.
	Head []Term
	// Atoms is T_Q with arguments canonicalized.
	Atoms []Atom
	// Unsat is true when some equality class is pinned to two distinct
	// constants, making the query unsatisfiable.
	Unsat bool
}

// Canonicalize computes the tableau of q. The query is normalized first, so
// callers may pass raw queries.
func (q *CQ) Canonicalize() *Canonical {
	n := q.Normalize()
	cls := n.EqClassesPlus()
	if cls.AnyConflict() {
		return &Canonical{Unsat: true}
	}
	freeze := func(t Term) Term {
		if !t.IsVar() {
			return t
		}
		if cls.IsConstantVar(t.V) {
			return Const(cls.ConstOf(t.V))
		}
		return Var(cls.Root(t.V))
	}
	c := &Canonical{}
	for _, v := range n.Free {
		c.Head = append(c.Head, freeze(Var(v)))
	}
	for _, a := range n.Atoms {
		ca := a.Clone()
		for i := range ca.Args {
			ca.Args[i] = freeze(ca.Args[i])
		}
		// Deduplicate identical canonical atoms.
		dup := false
		for _, b := range c.Atoms {
			if ca.Equal(b) {
				dup = true
				break
			}
		}
		if !dup {
			c.Atoms = append(c.Atoms, ca)
		}
	}
	return c
}

// Vars returns the distinct variables of the canonical form.
func (c *Canonical) Vars() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(t Term) {
		if t.IsVar() && !seen[t.V] {
			seen[t.V] = true
			out = append(out, t.V)
		}
	}
	for _, t := range c.Head {
		add(t)
	}
	for _, a := range c.Atoms {
		for _, t := range a.Args {
			add(t)
		}
	}
	return out
}

// Satisfiable is the classical (constraint-free) satisfiability test: a CQ
// is satisfiable iff its equality atoms are consistent. PTIME, per the
// paper's remark before Lemma 3.2.
func (q *CQ) Satisfiable() bool { return !q.Canonicalize().Unsat }

// homSearch finds a homomorphism from src (the containing query's tableau)
// into dst (the contained query's tableau viewed as a canonical instance):
// a mapping h of src's variables to dst's terms such that every src atom
// maps onto some dst atom and h(src.Head) = dst.Head element-wise.
func homSearch(src, dst *Canonical) bool {
	h := make(map[string]Term)
	// Unify heads first.
	if len(src.Head) != len(dst.Head) {
		return false
	}
	for i, t := range src.Head {
		if !bindTerm(h, t, dst.Head[i]) {
			return false
		}
	}
	return matchAtoms(src.Atoms, 0, dst, h)
}

// bindTerm extends h so that term s maps to term d; constants must match
// exactly.
func bindTerm(h map[string]Term, s, d Term) bool {
	if !s.IsVar() {
		return !d.IsVar() && s.C == d.C
	}
	if cur, ok := h[s.V]; ok {
		return cur == d
	}
	h[s.V] = d
	return true
}

func matchAtoms(atoms []Atom, i int, dst *Canonical, h map[string]Term) bool {
	if i == len(atoms) {
		return true
	}
	a := atoms[i]
	for _, b := range dst.Atoms {
		if b.Rel != a.Rel || len(b.Args) != len(a.Args) {
			continue
		}
		// Try mapping a onto b, recording new bindings for rollback.
		var added []string
		ok := true
		for j := range a.Args {
			s, d := a.Args[j], b.Args[j]
			if s.IsVar() {
				if _, bound := h[s.V]; !bound {
					added = append(added, s.V)
				}
			}
			if !bindTerm(h, s, d) {
				ok = false
				break
			}
		}
		if ok && matchAtoms(atoms, i+1, dst, h) {
			return true
		}
		for _, v := range added {
			delete(h, v)
		}
	}
	return false
}

// Contains reports classical containment q1 ⊆ q2 via the Homomorphism
// Theorem [Chandra-Merlin]: q1 ⊆ q2 iff there is a homomorphism from q2's
// tableau to q1's tableau preserving the head. Unsatisfiable q1 is contained
// in everything of the same arity.
func Contains(q1, q2 *CQ) bool {
	c1, c2 := q1.Canonicalize(), q2.Canonicalize()
	if len(q1.Free) != len(q2.Free) {
		return false
	}
	if c1.Unsat {
		return true
	}
	if c2.Unsat {
		return false
	}
	return homSearch(c2, c1)
}

// Equivalent reports classical equivalence q1 ≡ q2.
func Equivalent(q1, q2 *CQ) bool { return Contains(q1, q2) && Contains(q2, q1) }
