package cq

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"repro/internal/value"
)

// CanonicalKey returns q's plan-cache key: the template KeyParams
// renders, without its params.
func (q *CQ) CanonicalKey() string {
	k, _ := q.KeyParams()
	return k
}

// KeyParams returns q's template key and the constants that fill its
// holes. The key is a deterministic serialization of the normalized
// query that is invariant under renaming of bound variables,
// duplicate-atom elimination, inline vs hoisted constants, and
// reordering of atoms and equality atoms (up to the name-free atom
// signature the sort uses). The Label is ignored; the free-variable
// tuple is kept literally so that a plan synthesized for one query
// yields the same output columns for every query sharing its key.
//
// Every constant is rendered as a typed hole "$i:kind", where i indexes
// params. Holes are numbered by first occurrence in an order that never
// looks at a constant's value, and equal constants share one hole, so
// the key keeps the equality pattern of the constants and their kinds
// but not the constants themselves: Q0 for one date and Q0 for another
// share a key, and their params differ.
//
// The key is sound for plan caching: two CQs with equal keys are the
// same query up to bound-variable renaming and the kind-preserving
// bijection params₁[i] ↦ params₂[i]. Planning compares constants only
// for equality, so a plan for one, with its constants rebound through
// that bijection, answers the other. The key is not complete —
// semantically equivalent queries may still produce distinct keys,
// which costs a cache miss, never a wrong answer.
func (q *CQ) KeyParams() (string, []value.Value) {
	var b strings.Builder
	params := q.WriteKey(&b, nil)
	return b.String(), params
}

// WriteKey writes q's template key to b and returns params extended by
// q's constants not already in it. A hole's number is its constant's
// index in params, so queries written against one params table (the
// sub-queries of a union) share the holes of the constants they share.
func (q *CQ) WriteKey(b *strings.Builder, params []value.Value) []value.Value {
	// Fixed buffers keep a typical query's scratch off the heap.
	var (
		orderBuf [8]int
		boundBuf [16]string
		eqBuf    [8]keyEq
	)
	b.Grow(keySizeHint(q))

	// Atoms, sorted by their name-free signature. Naming bound variables
	// by first occurrence in that order makes the key independent of
	// their names; each inline constant stands for a fresh variable
	// pinned to it, exactly as Normalize would hoist it.
	order := orderBuf[:0]
	for i := range q.Atoms {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(i, j int) int { return cmpAtoms(q.Free, q.Atoms[i], q.Atoms[j]) })

	// bound names the bound variables by canonical number; "" stands for
	// an inline constant's fresh variable.
	bound := boundBuf[:0]
	eqs := eqBuf[:0]
	side := func(t Term) keySide {
		switch {
		case !t.IsVar():
			return keySide{kind: sideConst, c: t.C}
		case slices.Contains(q.Free, t.V):
			return keySide{kind: sideFree, name: t.V}
		}
		n := slices.Index(bound, t.V)
		if n < 0 {
			n = len(bound)
			bound = append(bound, t.V)
		}
		return keySide{kind: sideBound, n: n}
	}

	b.WriteByte('(')
	for i, v := range q.Free {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v)
	}
	b.WriteString(")←")
	kept := order[:0] // overwrites order behind the read position
	for _, ai := range order {
		a := q.Atoms[ai]
		if repeatsAtom(q.Atoms, kept, a) {
			continue
		}
		kept = append(kept, ai)
		b.WriteString(a.Rel)
		b.WriteByte('(')
		for i, t := range a.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			s := side(t)
			if s.kind == sideConst {
				v := keySide{kind: sideBound, n: len(bound)}
				bound = append(bound, "")
				eqs = append(eqs, keyEq{l: s, r: v})
				s = v
			}
			writeSide(b, s)
		}
		b.WriteString(");")
	}

	// Equality atoms: trivial x = x and repeats (either orientation) say
	// nothing; each other one is oriented smaller side first, then all
	// are sorted, again without looking at any constant's value.
	for i, e := range q.Eqs {
		if e.L == e.R && e.L.IsVar() || repeatsEq(q.Eqs[:i], e) {
			continue
		}
		l, r := side(e.L), side(e.R)
		if cmpSide(r, l) < 0 {
			l, r = r, l
		}
		eqs = append(eqs, keyEq{l: l, r: r})
	}
	slices.SortStableFunc(eqs, func(x, y keyEq) int {
		if c := cmpSide(x.l, y.l); c != 0 {
			return c
		}
		return cmpSide(x.r, y.r)
	})

	// Holes, numbered in that order; an equal constant reuses its hole.
	b.WriteByte('|')
	for i := range eqs {
		e := &eqs[i]
		params = e.l.hole(params)
		params = e.r.hole(params)
		if i > 0 {
			b.WriteByte(';')
		}
		writeSide(b, e.l)
		b.WriteByte('=')
		writeSide(b, e.r)
	}
	return params
}

// keyEq is an equality atom in key form.
type keyEq struct{ l, r keySide }

type sideKind uint8

const (
	sideConst sideKind = iota
	sideFree
	sideBound
)

// keySide is one term in key form: a constant (n is its hole once
// numbered), a free variable (by name), or a bound variable (n is its
// canonical number).
type keySide struct {
	kind sideKind
	n    int
	name string
	c    value.Value
}

// hole numbers a constant side against params.
func (s *keySide) hole(params []value.Value) []value.Value {
	if s.kind != sideConst {
		return params
	}
	s.n = slices.Index(params, s.c)
	if s.n < 0 {
		s.n = len(params)
		params = append(params, s.c)
	}
	return params
}

func writeSide(b *strings.Builder, s keySide) {
	switch s.kind {
	case sideConst:
		b.WriteByte('$')
		b.WriteString(strconv.Itoa(s.n))
		b.WriteByte(':')
		b.WriteString(s.c.Kind().String())
	case sideFree:
		b.WriteString(s.name)
	default:
		b.WriteString("·")
		b.WriteString(strconv.Itoa(s.n))
	}
}

// cmpSide orders sides without looking at a constant's value: constants
// compare by kind only.
func cmpSide(a, b keySide) int {
	if a.kind != b.kind {
		return cmp.Compare(a.kind, b.kind)
	}
	switch a.kind {
	case sideConst:
		return cmp.Compare(a.c.Kind(), b.c.Kind())
	case sideFree:
		return strings.Compare(a.name, b.name)
	default:
		return cmp.Compare(a.n, b.n)
	}
}

// Argument signature classes: what the atom sort may look at.
const (
	sigFresh  = iota // a bound variable's first position in the atom, or a constant
	sigRepeat        // a bound variable seen at an earlier position
	sigFree          // a free variable, by name
)

// argSig classifies argument i of a, name-free for bound variables:
// pos is the repeated position (sigRepeat), name the free variable.
func argSig(free []string, a Atom, i int) (class, pos int, name string) {
	t := a.Args[i]
	if !t.IsVar() {
		return sigFresh, 0, ""
	}
	if slices.Contains(free, t.V) {
		return sigFree, 0, t.V
	}
	for j := range i {
		if a.Args[j].V == t.V {
			return sigRepeat, j, ""
		}
	}
	return sigFresh, 0, ""
}

// cmpAtoms orders atoms by relation, then per argument by signature.
func cmpAtoms(free []string, a, b Atom) int {
	if c := strings.Compare(a.Rel, b.Rel); c != 0 {
		return c
	}
	if c := cmp.Compare(len(a.Args), len(b.Args)); c != 0 {
		return c
	}
	for i := range a.Args {
		ca, pa, na := argSig(free, a, i)
		cb, pb, nb := argSig(free, b, i)
		if c := cmp.Compare(ca, cb); c != 0 {
			return c
		}
		if c := cmp.Compare(pa, pb); c != 0 {
			return c
		}
		if c := strings.Compare(na, nb); c != 0 {
			return c
		}
	}
	return 0
}

// repeatsAtom reports whether a repeats one of the atoms indexed by
// kept. An atom with an inline constant never does: Normalize hoists
// each occurrence into a variable of its own.
func repeatsAtom(atoms []Atom, kept []int, a Atom) bool {
	for _, t := range a.Args {
		if !t.IsVar() {
			return false
		}
	}
	for _, j := range kept {
		if a.Equal(atoms[j]) {
			return true
		}
	}
	return false
}

// repeatsEq reports whether e repeats one of prev, in either orientation.
func repeatsEq(prev []Eq, e Eq) bool {
	for _, f := range prev {
		if e == f || e.L == f.R && e.R == f.L {
			return true
		}
	}
	return false
}

// keySizeHint estimates the rendered key's length, so one allocation
// usually holds it.
func keySizeHint(q *CQ) int {
	n := 8 + 8*len(q.Free) + 16*len(q.Eqs)
	for _, a := range q.Atoms {
		n += len(a.Rel) + 4 + 5*len(a.Args)
		for _, t := range a.Args {
			if !t.IsVar() {
				n += 16
			}
		}
	}
	return n
}

// QueryLabel implements the serving-layer Query interface of
// internal/core: a CQ is the simplest query the engine serves.
func (q *CQ) QueryLabel() string { return q.Label }

// QueryCQs returns the query's UCQ normal form — the single-disjunct
// union holding q itself.
func (q *CQ) QueryCQs() ([]*CQ, error) { return []*CQ{q}, nil }
