package cq

import (
	"sort"

	"repro/internal/value"
)

// EqClasses is the partition of var(Q) induced by equality atoms, as a
// union-find structure, together with the constant (if any) each class is
// pinned to.
//
// Two closures matter in the paper (Example 3.8): eq(x,Q) merges only via
// variable-variable equalities y = z (plus transitivity), while eq⁺(x,Q)
// additionally merges classes pinned to the same constant (x = c and y = c
// imply x = y). EqClasses computes eq; EqClassesPlus computes eq⁺.
type EqClasses struct {
	parent map[string]string
	// constOf maps a class root to its pinned constants. More than one
	// distinct constant means the query is unsatisfiable (a "conflict").
	constOf map[string][]value.Value
}

// EqClasses computes eq(·, Q): the equality closure using only
// variable-variable equality atoms; constants pin classes but never merge
// them.
func (q *CQ) EqClasses() *EqClasses { return q.eqClasses(false) }

// EqClassesPlus computes eq⁺(·, Q): additionally merging classes pinned to
// equal constants.
func (q *CQ) EqClassesPlus() *EqClasses { return q.eqClasses(true) }

func (q *CQ) eqClasses(plus bool) *EqClasses {
	e := &EqClasses{
		parent:  make(map[string]string),
		constOf: make(map[string][]value.Value),
	}
	for _, v := range q.Vars() {
		e.parent[v] = v
	}
	for _, eq := range q.Eqs {
		switch {
		case eq.L.IsVar() && eq.R.IsVar():
			e.union(eq.L.V, eq.R.V)
		case eq.L.IsVar():
			e.pin(eq.L.V, eq.R.C)
		case eq.R.IsVar():
			e.pin(eq.R.V, eq.L.C)
		}
	}
	if plus {
		// Merge classes pinned to the same constant.
		rep := make(map[value.Value]string)
		for _, v := range q.Vars() {
			r := e.find(v)
			for _, c := range e.constOf[r] {
				if prev, ok := rep[c]; ok {
					e.union(prev, v)
				} else {
					rep[c] = v
				}
			}
		}
	}
	return e
}

func (e *EqClasses) find(v string) string {
	p, ok := e.parent[v]
	if !ok {
		// Unknown variables are their own singleton class.
		e.parent[v] = v
		return v
	}
	if p == v {
		return v
	}
	r := e.find(p)
	e.parent[v] = r
	return r
}

func (e *EqClasses) union(a, b string) {
	ra, rb := e.find(a), e.find(b)
	if ra == rb {
		return
	}
	// Deterministic root choice: smaller name wins.
	if rb < ra {
		ra, rb = rb, ra
	}
	e.parent[rb] = ra
	e.constOf[ra] = mergeConsts(e.constOf[ra], e.constOf[rb])
	delete(e.constOf, rb)
}

func (e *EqClasses) pin(v string, c value.Value) {
	r := e.find(v)
	e.constOf[r] = mergeConsts(e.constOf[r], []value.Value{c})
}

func mergeConsts(a, b []value.Value) []value.Value {
	out := append([]value.Value(nil), a...)
	for _, c := range b {
		dup := false
		for _, d := range out {
			if c == d {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// Same reports whether a and b are in one class.
func (e *EqClasses) Same(a, b string) bool { return e.find(a) == e.find(b) }

// Root returns the canonical representative of v's class.
func (e *EqClasses) Root(v string) string { return e.find(v) }

// ClassOf returns every variable in v's class, sorted.
func (e *EqClasses) ClassOf(v string) []string {
	r := e.find(v)
	var out []string
	for w := range e.parent {
		if e.find(w) == r {
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}

// ConstOf returns the constant v's class is pinned to, or the Null value if
// unpinned. When the class is conflicted (pinned to two distinct constants)
// it returns the first; check HasConflict separately.
func (e *EqClasses) ConstOf(v string) value.Value {
	cs := e.constOf[e.find(v)]
	if len(cs) == 0 {
		return value.Value{}
	}
	return cs[0]
}

// IsConstantVar reports the paper's "constant variable" status: v's class
// is pinned to some constant.
func (e *EqClasses) IsConstantVar(v string) bool {
	return len(e.constOf[e.find(v)]) > 0
}

// HasConflict reports whether v's class is pinned to two distinct constants
// (which makes the query unsatisfiable).
func (e *EqClasses) HasConflict(v string) bool {
	return len(e.constOf[e.find(v)]) > 1
}

// AnyConflict reports whether any class is conflicted.
func (e *EqClasses) AnyConflict() bool {
	for _, cs := range e.constOf {
		if len(cs) > 1 {
			return true
		}
	}
	return false
}

// DataDependent reports whether v is data-dependent: eq(v,Q) (this closure)
// contains a variable occurring in a relation atom of q.
func (e *EqClasses) DataDependent(v string, q *CQ) bool {
	atomVars := q.AtomVars()
	for _, w := range e.ClassOf(v) {
		if atomVars[w] {
			return true
		}
	}
	return false
}
