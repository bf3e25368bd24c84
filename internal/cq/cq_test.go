package cq

import (
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

func iv(i int64) value.Value { return value.NewInt(i) }

// q0 is Q0 of Example 1.1 (normal form: constants hoisted).
func q0() *CQ {
	return &CQ{
		Label: "Q0",
		Free:  []string{"xa"},
		Atoms: []Atom{
			NewAtom("Accident", Var("aid"), Var("d"), Var("t")),
			NewAtom("Casualty", Var("cid"), Var("aid"), Var("class"), Var("vid")),
			NewAtom("Vehicle", Var("vid"), Var("dri"), Var("xa")),
		},
		Eqs: []Eq{
			{Var("d"), Const(value.NewString("Queen's Park"))},
			{Var("t"), Const(value.NewString("1/5/2005"))},
		},
	}
}

func accidentSchema() *schema.Schema {
	return schema.MustNew(
		schema.MustRelation("Accident", "aid", "district", "date"),
		schema.MustRelation("Casualty", "cid", "aid", "class", "vid"),
		schema.MustRelation("Vehicle", "vid", "driver", "age"),
	)
}

func TestValidateQ0(t *testing.T) {
	if err := q0().Validate(accidentSchema()); err != nil {
		t.Fatalf("Q0 should validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	s := accidentSchema()
	bad := &CQ{Label: "B1", Atoms: []Atom{NewAtom("Ghost", Var("x"))}}
	if err := bad.Validate(s); err == nil {
		t.Error("unknown relation must fail")
	}
	bad = &CQ{Label: "B2", Atoms: []Atom{NewAtom("Vehicle", Var("x"))}}
	if err := bad.Validate(s); err == nil {
		t.Error("arity mismatch must fail")
	}
	bad = &CQ{Label: "B3", Free: []string{"x"}} // x unsafe: no atom, no constant
	if err := bad.Validate(s); err == nil {
		t.Error("unsafe query must fail")
	}
	bad = &CQ{Label: "B4", Eqs: []Eq{{Const(iv(1)), Const(iv(2))}}}
	if err := bad.Validate(s); err == nil {
		t.Error("constant-constant equality must fail")
	}
}

func TestSafeViaConstant(t *testing.T) {
	// Q(x) :- x = 1 is safe: x equals a constant (data-independent).
	q := &CQ{Free: []string{"x"}, Eqs: []Eq{{Var("x"), Const(iv(1))}}}
	if err := q.Validate(accidentSchema()); err != nil {
		t.Errorf("constant-pinned free var should be safe: %v", err)
	}
}

func TestNormalizeHoistsConstants(t *testing.T) {
	q := &CQ{
		Free:  []string{"x"},
		Atoms: []Atom{NewAtom("Vehicle", Const(iv(7)), Var("x"), Const(iv(9)))},
	}
	n := q.Normalize()
	if !n.IsNormalized() {
		t.Fatal("Normalize must remove constants from atoms")
	}
	if len(n.Eqs) != 2 {
		t.Fatalf("expected 2 hoisted equalities, got %v", n.Eqs)
	}
	if q.IsNormalized() {
		t.Error("receiver must not be modified")
	}
	// Idempotent.
	n2 := n.Normalize()
	if len(n2.Eqs) != len(n.Eqs) || len(n2.Atoms) != len(n.Atoms) {
		t.Error("Normalize must be idempotent on normalized queries")
	}
}

func TestNormalizeAvoidsCollision(t *testing.T) {
	q := &CQ{
		Free:  []string{"_c0"},
		Atoms: []Atom{NewAtom("Vehicle", Var("_c0"), Const(iv(1)), Var("y"))},
	}
	n := q.Normalize()
	// The fresh variable must not collide with existing _c0.
	names := make(map[string]int)
	for _, v := range n.Vars() {
		names[v]++
	}
	if len(n.Eqs) != 1 {
		t.Fatalf("Eqs = %v", n.Eqs)
	}
	hoisted := n.Eqs[0].L.V
	if hoisted == "_c0" {
		t.Error("fresh variable collided with existing _c0")
	}
}

// Example 3.8 of the paper: Q(x,y,u,v) = R(x,y) ∧ x=1 ∧ x=y ∧ u=1 ∧ u=v.
// eq(x,Q) = {x,y}, eq+(x,Q) = {x,y,u,v}; x,y data-dependent; u not.
func example38() *CQ {
	return &CQ{
		Label: "Q38",
		Free:  []string{"x", "y", "u", "v"},
		Atoms: []Atom{NewAtom("R", Var("x"), Var("y"))},
		Eqs: []Eq{
			{Var("x"), Const(iv(1))},
			{Var("x"), Var("y")},
			{Var("u"), Const(iv(1))},
			{Var("u"), Var("v")},
		},
	}
}

func TestEqVsEqPlusExample38(t *testing.T) {
	q := example38()
	eq := q.EqClasses()
	eqp := q.EqClassesPlus()

	if got := eq.ClassOf("x"); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("eq(x) = %v, want [x y]", got)
	}
	if got := eqp.ClassOf("x"); len(got) != 4 {
		t.Errorf("eq+(x) = %v, want all four variables", got)
	}
	if !eq.Same("u", "v") {
		t.Error("u and v are eq-equal via u=v")
	}
	if eq.Same("x", "u") {
		t.Error("x and u must NOT be eq-equal (only eq+)")
	}
	if !eqp.Same("x", "u") {
		t.Error("x and u must be eq+-equal via the shared constant 1")
	}
	if !eq.IsConstantVar("y") {
		t.Error("y is a constant variable (eq(y) contains x with x=1)")
	}
	if eq.ConstOf("y") != iv(1) {
		t.Errorf("ConstOf(y) = %v", eq.ConstOf("y"))
	}
	// Data-dependence uses eq, not eq+ (the paper's reason for separating them).
	if !eq.DataDependent("x", q) || !eq.DataDependent("y", q) {
		t.Error("x, y must be data-dependent")
	}
	if eq.DataDependent("u", q) || eq.DataDependent("v", q) {
		t.Error("u, v must be data-independent")
	}
}

func TestConflictDetection(t *testing.T) {
	q := &CQ{
		Free:  []string{"x"},
		Atoms: []Atom{NewAtom("R", Var("x"), Var("x2"))},
		Eqs: []Eq{
			{Var("x"), Const(iv(1))},
			{Var("x2"), Const(iv(2))},
			{Var("x"), Var("x2")},
		},
	}
	cls := q.EqClassesPlus()
	if !cls.AnyConflict() {
		t.Error("x=1, x2=2, x=x2 must conflict")
	}
	if q.Satisfiable() {
		t.Error("conflicted query must be unsatisfiable")
	}
}

func TestVarsAndConstants(t *testing.T) {
	q := q0()
	vars := q.Vars()
	want := []string{"aid", "cid", "class", "d", "dri", "t", "vid", "xa"}
	if len(vars) != len(want) {
		t.Fatalf("Vars = %v", vars)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Errorf("Vars[%d] = %s, want %s", i, vars[i], want[i])
		}
	}
	consts := q.Constants()
	if len(consts) != 2 {
		t.Errorf("Constants = %v", consts)
	}
}

func TestOccurrenceCount(t *testing.T) {
	q := q0()
	n := q.OccurrenceCount()
	if n["cid"] != 1 || n["class"] != 1 {
		t.Errorf("cid/class should occur once: %v", n)
	}
	if n["aid"] != 2 || n["vid"] != 2 {
		t.Errorf("aid/vid should occur twice: %v", n)
	}
	if n["xa"] != 2 { // head + Vehicle atom
		t.Errorf("xa should occur twice (head counts): %v", n)
	}
	if n["d"] != 2 { // atom + equality atom
		t.Errorf("d should occur twice (equality counts): %v", n)
	}
}

func TestSubstituteAndRenameApart(t *testing.T) {
	q := q0()
	r := q.RenameApart("p_")
	if r.Free[0] != "p_xa" {
		t.Errorf("renamed free = %v", r.Free)
	}
	for _, v := range r.Vars() {
		if !strings.HasPrefix(v, "p_") {
			t.Errorf("variable %s not renamed", v)
		}
	}
	// Original untouched.
	if q.Free[0] != "xa" {
		t.Error("RenameApart must not mutate the receiver")
	}
	s := q.Substitute(map[string]Term{"dri": Const(value.NewString("alice"))})
	found := false
	for _, a := range s.Atoms {
		for _, tm := range a.Args {
			if !tm.IsVar() && tm.C == value.NewString("alice") {
				found = true
			}
		}
	}
	if !found {
		t.Error("Substitute should place the constant into the atom")
	}
}

func TestContainmentBasics(t *testing.T) {
	// Q1(x) :- R(x,y), R(y,z)   ⊆   Q2(x) :- R(x,y)
	q1 := &CQ{Free: []string{"x"}, Atoms: []Atom{
		NewAtom("R", Var("x"), Var("y")),
		NewAtom("R", Var("y"), Var("z")),
	}}
	q2 := &CQ{Free: []string{"x"}, Atoms: []Atom{NewAtom("R", Var("x"), Var("y"))}}
	if !Contains(q1, q2) {
		t.Error("longer path query must be contained in shorter")
	}
	if Contains(q2, q1) {
		t.Error("shorter must NOT be contained in longer")
	}
}

func TestContainmentWithConstants(t *testing.T) {
	// Q1(x) :- R(x,y), y=1  ⊆  Q2(x) :- R(x,y); not conversely.
	q1 := &CQ{Free: []string{"x"},
		Atoms: []Atom{NewAtom("R", Var("x"), Var("y"))},
		Eqs:   []Eq{{Var("y"), Const(iv(1))}}}
	q2 := &CQ{Free: []string{"x"}, Atoms: []Atom{NewAtom("R", Var("x"), Var("y"))}}
	if !Contains(q1, q2) {
		t.Error("constant-restricted query contained in unrestricted")
	}
	if Contains(q2, q1) {
		t.Error("unrestricted not contained in restricted")
	}
}

func TestUnsatContainedInEverything(t *testing.T) {
	unsat := &CQ{Free: []string{"x"},
		Atoms: []Atom{NewAtom("R", Var("x"), Var("y"))},
		Eqs:   []Eq{{Var("x"), Const(iv(1))}, {Var("x"), Const(iv(2))}}}
	q := &CQ{Free: []string{"x"}, Atoms: []Atom{NewAtom("R", Var("x"), Var("y"))}}
	if !Contains(unsat, q) {
		t.Error("unsatisfiable query contained in any same-arity query")
	}
	if Contains(q, unsat) {
		t.Error("satisfiable query not contained in unsatisfiable one")
	}
}

func TestEquivalentModuloVariableNames(t *testing.T) {
	q1 := &CQ{Free: []string{"x"}, Atoms: []Atom{NewAtom("R", Var("x"), Var("y"))}}
	q2 := q1.RenameApart("z_")
	if !Equivalent(q1, q2) {
		t.Error("alpha-renamed queries must be equivalent")
	}
}

func TestArityMismatchNotContained(t *testing.T) {
	q1 := &CQ{Free: []string{"x"}, Atoms: []Atom{NewAtom("R", Var("x"), Var("y"))}}
	q2 := &CQ{Free: []string{"x", "y"}, Atoms: []Atom{NewAtom("R", Var("x"), Var("y"))}}
	if Contains(q1, q2) || Contains(q2, q1) {
		t.Error("different arities are incomparable")
	}
}

func TestCanonicalizeAppliesEqualities(t *testing.T) {
	// Q(x) :- R(x,y), x=y: canonical form should use one variable.
	q := &CQ{Free: []string{"x"}, Atoms: []Atom{NewAtom("R", Var("x"), Var("y"))},
		Eqs: []Eq{{Var("x"), Var("y")}}}
	c := q.Canonicalize()
	if c.Unsat {
		t.Fatal("should be satisfiable")
	}
	a := c.Atoms[0]
	if a.Args[0] != a.Args[1] {
		t.Errorf("x=y should identify atom args: %v", a)
	}
	if c.Head[0] != a.Args[0] {
		t.Errorf("head should use the class representative: %v vs %v", c.Head, a)
	}
}

func TestCanonicalizeDedupsAtoms(t *testing.T) {
	q := &CQ{Free: []string{"x"}, Atoms: []Atom{
		NewAtom("R", Var("x"), Var("y")),
		NewAtom("R", Var("x"), Var("z")),
	}, Eqs: []Eq{{Var("y"), Var("z")}}}
	c := q.Canonicalize()
	if len(c.Atoms) != 1 {
		t.Errorf("identified atoms should dedup: %v", c.Atoms)
	}
}

func TestStringRendering(t *testing.T) {
	s := q0().String()
	if !strings.Contains(s, "Q0(xa) :- Accident(aid, d, t)") {
		t.Errorf("String = %q", s)
	}
	empty := &CQ{}
	if !strings.Contains(empty.String(), "true") {
		t.Errorf("empty body should render true: %q", empty.String())
	}
}

func TestSizeAndClone(t *testing.T) {
	q := q0()
	if q.Size() == 0 {
		t.Error("Size should be positive")
	}
	c := q.Clone()
	c.Atoms[0].Args[0] = Var("mutated")
	if q.Atoms[0].Args[0].V != "aid" {
		t.Error("Clone must deep-copy atoms")
	}
}

func TestDropDuplicateAtoms(t *testing.T) {
	q := &CQ{Free: []string{"x"}, Atoms: []Atom{
		NewAtom("R", Var("x"), Var("y")),
		NewAtom("R", Var("x"), Var("y")),
	}, Eqs: []Eq{{Var("x"), Var("x")}, {Var("x"), Var("y")}, {Var("y"), Var("x")}}}
	d := q.DropDuplicateAtoms()
	if len(d.Atoms) != 1 {
		t.Errorf("atoms = %v", d.Atoms)
	}
	if len(d.Eqs) != 1 {
		t.Errorf("eqs = %v (trivial and symmetric duplicates must go)", d.Eqs)
	}
}
