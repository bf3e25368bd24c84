// Package access implements access schemas: sets of access constraints
// R(X -> Y, N), each a cardinality constraint paired with an index on X
// for Y (Section 2 of the paper).
//
// Both the constant form R(X -> Y, N) and the general form R(X -> Y, s(·))
// with a sublinear, PTIME-computable cardinality function s are supported
// (the paper's "access constraints with non-constant cardinality").
package access

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/data"
	"repro/internal/index"
	"repro/internal/schema"
)

// Cardinality is the bound side of an access constraint: either a constant
// N, or a named sublinear function s(|D|).
type Cardinality struct {
	// Const is the constant bound N when Fn is nil.
	Const int
	// Fn, when non-nil, is the general-form bound s(|D|). It must be
	// monotone and PTIME-computable (Cor. 3.15's condition).
	Fn func(size int) int
	// Name labels Fn for display ("log", "sqrt", ...). Empty for constants.
	Name string
}

// ConstCard returns the constant cardinality N.
func ConstCard(n int) Cardinality { return Cardinality{Const: n} }

// LogCard returns the general-form cardinality s(|D|) = ceil(log2(|D|+1)).
func LogCard() Cardinality {
	return Cardinality{
		Fn:   func(size int) int { return int(math.Ceil(math.Log2(float64(size) + 1))) },
		Name: "log",
	}
}

// SqrtCard returns the general-form cardinality s(|D|) = ceil(sqrt(|D|)).
func SqrtCard() Cardinality {
	return Cardinality{
		Fn:   func(size int) int { return int(math.Ceil(math.Sqrt(float64(size)))) },
		Name: "sqrt",
	}
}

// IsConst reports whether the bound is the constant form.
func (c Cardinality) IsConst() bool { return c.Fn == nil }

// Bound evaluates the bound for a dataset of the given size. For constant
// cardinalities the size is ignored.
func (c Cardinality) Bound(size int) int {
	if c.Fn != nil {
		return c.Fn(size)
	}
	return c.Const
}

// String renders "610" or "log(|D|)".
func (c Cardinality) String() string {
	if c.Fn != nil {
		return c.Name + "(|D|)"
	}
	return fmt.Sprint(c.Const)
}

// Constraint is one access constraint R(X -> Y, N).
type Constraint struct {
	Rel  string
	X, Y []schema.Attribute
	Card Cardinality
}

// NewConstraint builds the constant-cardinality constraint R(X -> Y, N).
func NewConstraint(rel string, x, y []schema.Attribute, n int) Constraint {
	return Constraint{Rel: rel, X: x, Y: y, Card: ConstCard(n)}
}

// Validate checks the constraint is well formed over s: the relation exists,
// X and Y are attributes of it, and the bound is sane.
func (c Constraint) Validate(s *schema.Schema) error {
	rs, ok := s.Relation(c.Rel)
	if !ok {
		return fmt.Errorf("access: constraint references unknown relation %s", c.Rel)
	}
	if !rs.HasAttrs(c.X) {
		return fmt.Errorf("access: %s: X attributes %v not all in %s", c, c.X, rs)
	}
	if !rs.HasAttrs(c.Y) {
		return fmt.Errorf("access: %s: Y attributes %v not all in %s", c, c.Y, rs)
	}
	if len(c.Y) == 0 {
		return fmt.Errorf("access: %s: Y must be nonempty", c)
	}
	if c.Card.IsConst() && c.Card.Const < 1 {
		return fmt.Errorf("access: %s: constant bound must be >= 1", c)
	}
	return nil
}

// Covers reports whether attribute a is in X ∪ Y.
func (c Constraint) Covers(a schema.Attribute) bool {
	return attrIn(c.X, a) || attrIn(c.Y, a)
}

func attrIn(as []schema.Attribute, a schema.Attribute) bool {
	for _, b := range as {
		if a == b {
			return true
		}
	}
	return false
}

// String renders the paper's notation, e.g. "Accident(date -> aid, 610)".
func (c Constraint) String() string {
	return fmt.Sprintf("%s(%s -> %s, %s)", c.Rel, joinAttrs(c.X), joinAttrs(c.Y), c.Card)
}

func joinAttrs(as []schema.Attribute) string {
	if len(as) == 0 {
		return "∅"
	}
	parts := make([]string, len(as))
	for i, a := range as {
		parts[i] = string(a)
	}
	return strings.Join(parts, " ")
}

// Schema is an access schema A: a set of access constraints over one
// relational schema.
type Schema struct {
	Constraints []Constraint
}

// NewSchema collects constraints into an access schema.
func NewSchema(cs ...Constraint) *Schema {
	return &Schema{Constraints: append([]Constraint(nil), cs...)}
}

// Validate checks every constraint against the relational schema.
func (a *Schema) Validate(s *schema.Schema) error {
	for _, c := range a.Constraints {
		if err := c.Validate(s); err != nil {
			return err
		}
	}
	return nil
}

// ForRelation returns the constraints on the named relation.
func (a *Schema) ForRelation(rel string) []Constraint {
	var out []Constraint
	for _, c := range a.Constraints {
		if c.Rel == rel {
			out = append(out, c)
		}
	}
	return out
}

// Size is |A| for complexity accounting: total attribute mentions plus one
// per constraint.
func (a *Schema) Size() int {
	n := 0
	for _, c := range a.Constraints {
		n += 1 + len(c.X) + len(c.Y)
	}
	return n
}

// CoversSchema implements the syntactic condition of Proposition 5.4:
// A covers R iff for each relation schema R in R there is a constraint
// R(X -> Y, N) in A such that every attribute of R is in X ∪ Y.
func (a *Schema) CoversSchema(s *schema.Schema) bool {
	for _, rs := range s.Relations() {
		ok := false
		for _, c := range a.ForRelation(rs.Name) {
			all := true
			for _, attr := range rs.Attrs {
				if !c.Covers(attr) {
					all = false
					break
				}
			}
			if all {
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

// String renders one constraint per line, in order.
func (a *Schema) String() string {
	parts := make([]string, len(a.Constraints))
	for i, c := range a.Constraints {
		parts[i] = c.String()
	}
	return strings.Join(parts, "\n")
}

// Violation describes one failed cardinality check during validation of an
// instance against an access schema.
type Violation struct {
	Constraint Constraint
	// Group is the offending |D_Y(X = ā)| and Bound the allowed maximum.
	Group, Bound int
}

func (v Violation) Error() string {
	return fmt.Sprintf("access: %s violated: group of %d exceeds bound %d",
		v.Constraint, v.Group, v.Bound)
}

// MarshalJSON renders the violation for wire surfaces (internal/server's
// 409 payload): the constraint as written, the offending group size, and
// the allowed bound. HTML escaping is off so "->" survives verbatim.
func (v Violation) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(struct {
		Constraint string `json:"constraint"`
		Group      int    `json:"group"`
		Bound      int    `json:"bound"`
	}{v.Constraint.String(), v.Group, v.Bound})
	return bytes.TrimRight(buf.Bytes(), "\n"), err
}

// Indexed is an access schema whose indices have been built over a concrete
// instance; it is what bounded query plans execute against.
type Indexed struct {
	Access   *Schema
	Instance *data.Instance
	// indexes[i] backs Access.Constraints[i].
	indexes []*index.Index
}

// BuildIndexed builds all indices of a over d and verifies that d satisfies
// every cardinality bound (D |= A). It returns the indexed schema and the
// violations, if any; indices are returned even when violations exist so
// callers can report precisely.
func BuildIndexed(a *Schema, d *data.Instance) (*Indexed, []Violation, error) {
	ix := &Indexed{Access: a, Instance: d, indexes: make([]*index.Index, len(a.Constraints))}
	var viols []Violation
	size := d.Size()
	for i, c := range a.Constraints {
		rel := d.Relation(c.Rel)
		if rel == nil {
			return nil, nil, fmt.Errorf("access: instance has no relation %s", c.Rel)
		}
		idx, err := index.Build(rel, c.X, c.Y)
		if err != nil {
			return nil, nil, err
		}
		ix.indexes[i] = idx
		if g, b := idx.MaxGroup(), c.Card.Bound(size); g > b {
			viols = append(viols, Violation{Constraint: c, Group: g, Bound: b})
		}
	}
	return ix, viols, nil
}

// Index returns the index backing constraint i.
func (ix *Indexed) Index(i int) *index.Index { return ix.indexes[i] }

// RestoreIndexed wraps pre-built indexes around an instance WITHOUT
// rebuilding or re-validating them — the recovery fast path of
// internal/durable, where the indexes come deserialized from a
// CRC-checked checkpoint. idxs[i] must index Constraints[i] (same
// relation; the caller restored X and Y from the constraint itself).
// Unlike BuildIndexed, no D |= A check runs: a checkpoint records a
// state that was validated when it was committed.
func RestoreIndexed(a *Schema, d *data.Instance, idxs []*index.Index) (*Indexed, error) {
	if len(idxs) != len(a.Constraints) {
		return nil, fmt.Errorf("access: restore has %d indexes for %d constraints", len(idxs), len(a.Constraints))
	}
	for i, c := range a.Constraints {
		if idxs[i] == nil {
			return nil, fmt.Errorf("access: restore missing index for constraint %s", c)
		}
		if idxs[i].Rel != c.Rel {
			return nil, fmt.Errorf("access: restored index on %s for constraint %s", idxs[i].Rel, c)
		}
	}
	return &Indexed{Access: a, Instance: d, indexes: append([]*index.Index(nil), idxs...)}, nil
}

// CloneWith returns an Indexed over inst that shares ix's indexes except
// those replaced in repl (keyed by constraint position). It is the
// access-schema-level copy-on-write step of a snapshotted update: ix and
// everything reachable from it stay untouched, so in-flight readers of ix
// keep a consistent pre-update view.
func (ix *Indexed) CloneWith(inst *data.Instance, repl map[int]*index.Index) (*Indexed, error) {
	cp := &Indexed{
		Access:   ix.Access,
		Instance: inst,
		indexes:  append([]*index.Index(nil), ix.indexes...),
	}
	for i, idx := range repl {
		if i < 0 || i >= len(cp.indexes) {
			return nil, fmt.Errorf("access: no constraint %d to replace an index for", i)
		}
		c := ix.Access.Constraints[i]
		if idx.Rel != c.Rel {
			return nil, fmt.Errorf("access: replacement index on %s for constraint %s", idx.Rel, c)
		}
		cp.indexes[i] = idx
	}
	return cp, nil
}

// IndexFor returns the index for a constraint equal to c (same relation,
// X, Y), or nil.
func (ix *Indexed) IndexFor(c Constraint) *index.Index {
	for i, cc := range ix.Access.Constraints {
		if cc.Rel == c.Rel && attrsEqual(cc.X, c.X) && attrsEqual(cc.Y, c.Y) {
			return ix.indexes[i]
		}
	}
	return nil
}

func attrsEqual(a, b []schema.Attribute) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Satisfies reports whether d |= a, i.e. every cardinality bound holds.
// It builds throwaway indices; prefer BuildIndexed when you also need them.
func Satisfies(a *Schema, d *data.Instance) (bool, error) {
	_, viols, err := BuildIndexed(a, d)
	if err != nil {
		return false, err
	}
	return len(viols) == 0, nil
}

// Discover mines access constraints from an instance, emulating the paper's
// "constraints are discovered by simple aggregate queries on D". For every
// relation and every candidate (X, Y) pair with |X| <= maxX and single
// attributes as Y, it measures max |D_Y(X = ā)| and emits a constraint when
// the bound is at most maxBound. Keys (bound 1) are always kept.
func Discover(s *schema.Schema, d *data.Instance, maxX, maxBound int) *Schema {
	var out []Constraint
	for _, rs := range s.Relations() {
		rel := d.Relation(rs.Name)
		if rel == nil || rel.Len() == 0 {
			continue
		}
		for _, x := range attrSubsets(rs.Attrs, maxX) {
			// Y = all attributes not in X (widest useful Y for this X).
			var y []schema.Attribute
			for _, a := range rs.Attrs {
				if !attrIn(x, a) {
					y = append(y, a)
				}
			}
			if len(y) == 0 {
				continue
			}
			idx, err := index.Build(rel, x, y)
			if err != nil {
				continue
			}
			if g := idx.MaxGroup(); g <= maxBound {
				out = append(out, Constraint{Rel: rs.Name, X: x, Y: y, Card: ConstCard(g)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return NewSchema(out...)
}

// attrSubsets enumerates subsets of attrs of size 0..max, in a stable order.
func attrSubsets(attrs []schema.Attribute, max int) [][]schema.Attribute {
	var out [][]schema.Attribute
	n := len(attrs)
	var rec func(start int, cur []schema.Attribute)
	rec = func(start int, cur []schema.Attribute) {
		if len(cur) <= max {
			out = append(out, append([]schema.Attribute(nil), cur...))
		}
		if len(cur) == max {
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, attrs[i]))
		}
	}
	rec(0, nil)
	return out
}
