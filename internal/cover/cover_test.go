package cover

import (
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/schema"
	"repro/internal/value"
)

func iv(i int64) value.Value                          { return value.NewInt(i) }
func sv(s string) value.Value                         { return value.NewString(s) }
func attrs(as ...schema.Attribute) []schema.Attribute { return as }

func accidentSchema() *schema.Schema {
	return schema.MustNew(
		schema.MustRelation("Accident", "aid", "district", "date"),
		schema.MustRelation("Casualty", "cid", "aid", "class", "vid"),
		schema.MustRelation("Vehicle", "vid", "driver", "age"),
	)
}

func psi() *access.Schema {
	return access.NewSchema(
		access.NewConstraint("Accident", attrs("date"), attrs("aid"), 610),
		access.NewConstraint("Casualty", attrs("aid"), attrs("vid"), 192),
		access.NewConstraint("Accident", attrs("aid"), attrs("district", "date"), 1),
		access.NewConstraint("Vehicle", attrs("vid"), attrs("driver", "age"), 1),
	)
}

func q0() *cq.CQ {
	return &cq.CQ{
		Label: "Q0",
		Free:  []string{"xa"},
		Atoms: []cq.Atom{
			cq.NewAtom("Accident", cq.Var("aid"), cq.Const(sv("Queen's Park")), cq.Const(sv("1/5/2005"))),
			cq.NewAtom("Casualty", cq.Var("cid"), cq.Var("aid"), cq.Var("class"), cq.Var("vid")),
			cq.NewAtom("Vehicle", cq.Var("vid"), cq.Var("dri"), cq.Var("xa")),
		},
	}
}

// Example 1.1 / 3.10: Q0 is covered by psi1-psi4.
func TestQ0Covered(t *testing.T) {
	res, err := Check(q0(), psi(), accidentSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Fatalf("Q0 must be covered:\n%s", res.Explain())
	}
	an := res.Analysis
	for _, v := range []string{"aid", "vid", "xa", "dri"} {
		if !an.InCov(v) {
			t.Errorf("cov(Q0) should contain %s; got %v", v, an.CoveredList())
		}
	}
	// cid and class stay uncovered but harmless (occur once, non-constant).
	if an.InCov("cid") || an.InCov("class") {
		t.Errorf("cid/class should be uncovered: %v", an.CoveredList())
	}
}

// Example 5.1's Q (no date/district constants): NOT covered — free xa
// cannot be reached because no constraint application can start.
func TestQ51NotCovered(t *testing.T) {
	q := &cq.CQ{
		Label: "Q51",
		Free:  []string{"xa"},
		Atoms: []cq.Atom{
			cq.NewAtom("Accident", cq.Var("aid"), cq.Var("district"), cq.Var("date")),
			cq.NewAtom("Casualty", cq.Var("cid"), cq.Var("aid"), cq.Var("class"), cq.Var("vid")),
			cq.NewAtom("Vehicle", cq.Var("vid"), cq.Var("dri"), cq.Var("xa")),
		},
	}
	res, err := Check(q, psi(), accidentSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered {
		t.Fatal("the unparameterized accident query must NOT be covered")
	}
	found := false
	for _, v := range res.UncoveredFree {
		if v == "xa" {
			found = true
		}
	}
	if !found {
		t.Errorf("xa should be reported uncovered-free: %+v", res.UncoveredFree)
	}
}

// Example 3.1(1): Q1 over R1(A,B,E,F) with A1={A->B, E->F} is NOT covered:
// its only atom is not indexed (no constraint spans both B and F).
func TestExample31_1_NotCovered(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R1", "A", "B", "E", "F"))
	a1 := access.NewSchema(
		access.NewConstraint("R1", attrs("A"), attrs("B"), 3),
		access.NewConstraint("R1", attrs("E"), attrs("F"), 4),
	)
	q1 := &cq.CQ{
		Label: "Q1",
		Free:  []string{"x", "y"},
		Atoms: []cq.Atom{cq.NewAtom("R1", cq.Var("x1"), cq.Var("x"), cq.Var("x2"), cq.Var("y"))},
		Eqs: []cq.Eq{
			{L: cq.Var("x1"), R: cq.Const(iv(1))},
			{L: cq.Var("x2"), R: cq.Const(iv(1))},
		},
	}
	res, err := Check(q1, a1, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered {
		t.Fatalf("Q1 must not be covered:\n%s", res.Explain())
	}
	// Free variables ARE covered (x via A->B, y via E->F); the failure is
	// exactly condition (c): the atom is not indexed.
	if len(res.UncoveredFree) != 0 {
		t.Errorf("x,y should be covered; uncovered free = %v", res.UncoveredFree)
	}
	if len(res.Atoms) != 1 || res.Atoms[0].Indexed {
		t.Errorf("the single atom must be unindexed: %+v", res.Atoms)
	}
}

// Example 3.1(2) + 3.12: Q2 is not covered (free x uncovered), but its
// A2-equivalent rewrite Q2'(x) = (x=1 ∧ x=2) IS covered (data-independent).
func TestExample31_2_Coverage(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R2", "A", "B"))
	a2 := access.NewSchema(access.NewConstraint("R2", attrs("A"), attrs("B"), 1))
	q2 := &cq.CQ{
		Label: "Q2",
		Free:  []string{"x"},
		Atoms: []cq.Atom{
			cq.NewAtom("R2", cq.Var("x"), cq.Var("x1")),
			cq.NewAtom("R2", cq.Var("x"), cq.Var("x2")),
		},
		Eqs: []cq.Eq{
			{L: cq.Var("x1"), R: cq.Const(iv(1))},
			{L: cq.Var("x2"), R: cq.Const(iv(2))},
		},
	}
	res, err := Check(q2, a2, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered {
		t.Fatal("Q2 must not be covered (its free variable x is not in cov)")
	}
	q2p := &cq.CQ{
		Label: "Q2p",
		Free:  []string{"x"},
		Eqs: []cq.Eq{
			{L: cq.Var("x"), R: cq.Const(iv(1))},
			{L: cq.Var("x"), R: cq.Const(iv(2))},
		},
	}
	res, err = Check(q2p, a2, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Fatalf("Q2' must be covered (x is data-independent):\n%s", res.Explain())
	}
}

// Example 3.10: Q3 is covered by A3; cov(Q3,A3) = {x, y, z3, x1, x2}.
func TestExample310_Q3Covered(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R3", "A", "B", "C"))
	a3 := access.NewSchema(
		access.NewConstraint("R3", nil, attrs("C"), 1),
		access.NewConstraint("R3", attrs("A", "B"), attrs("C"), 5),
	)
	q3 := &cq.CQ{
		Label: "Q3",
		Free:  []string{"x", "y"},
		Atoms: []cq.Atom{
			cq.NewAtom("R3", cq.Var("x1"), cq.Var("x2"), cq.Var("x")),
			cq.NewAtom("R3", cq.Var("z1"), cq.Var("z2"), cq.Var("y")),
			cq.NewAtom("R3", cq.Var("x"), cq.Var("y"), cq.Var("z3")),
		},
		Eqs: []cq.Eq{
			{L: cq.Var("x1"), R: cq.Const(iv(1))},
			{L: cq.Var("x2"), R: cq.Const(iv(1))},
		},
	}
	res, err := Check(q3, a3, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Fatalf("Q3 must be covered by A3:\n%s", res.Explain())
	}
	an := res.Analysis
	for _, v := range []string{"x", "y", "z3", "x1", "x2"} {
		if !an.InCov(v) {
			t.Errorf("cov(Q3,A3) should contain %s (Example 3.10); got %v", v, an.CoveredList())
		}
	}
	if an.InCov("z1") || an.InCov("z2") {
		t.Errorf("z1, z2 must stay uncovered; got %v", an.CoveredList())
	}
}

// Order-independence of the fixpoint (Lemma 3.9): reversing constraint
// declaration order yields the same cov set.
func TestCovOrderIndependence(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R3", "A", "B", "C"))
	c1 := access.NewConstraint("R3", nil, attrs("C"), 1)
	c2 := access.NewConstraint("R3", attrs("A", "B"), attrs("C"), 5)
	q3 := &cq.CQ{
		Free: []string{"x", "y"},
		Atoms: []cq.Atom{
			cq.NewAtom("R3", cq.Var("x1"), cq.Var("x2"), cq.Var("x")),
			cq.NewAtom("R3", cq.Var("z1"), cq.Var("z2"), cq.Var("y")),
			cq.NewAtom("R3", cq.Var("x"), cq.Var("y"), cq.Var("z3")),
		},
		Eqs: []cq.Eq{
			{L: cq.Var("x1"), R: cq.Const(iv(1))},
			{L: cq.Var("x2"), R: cq.Const(iv(1))},
		},
	}
	an1, err := Analyze(q3, access.NewSchema(c1, c2), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	an2, err := Analyze(q3, access.NewSchema(c2, c1), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l1, l2 := an1.CoveredList(), an2.CoveredList()
	if strings.Join(l1, ",") != strings.Join(l2, ",") {
		t.Errorf("cov depends on constraint order: %v vs %v", l1, l2)
	}
}

// Example 3.8's pattern: variables reachable only through shared constants.
// Covered under eq⁺ — and, in this implementation, under eq-only as well:
// u is data-independent (cov(Qdi) = var(Qdi)) and constant variables are
// treated as fetchable everywhere, which subsumes the eq⁺ additions (see
// BenchmarkAblationEqPlus). This test pins the
// verdict-equivalence of the two closures on the motivating example.
func TestEqPlusAblation(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R", "A", "B"))
	a := access.NewSchema(access.NewConstraint("R", attrs("A"), attrs("B"), 2))
	// Q(u) :- R(x,y), x=1, u=1, u=v. Covering x should cover u via eq⁺.
	q := &cq.CQ{
		Free:  []string{"u"},
		Atoms: []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("y"))},
		Eqs: []cq.Eq{
			{L: cq.Var("x"), R: cq.Const(iv(1))},
			{L: cq.Var("u"), R: cq.Const(iv(1))},
			{L: cq.Var("u"), R: cq.Var("v")},
		},
	}
	full, err := Check(q, a, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Covered {
		t.Fatalf("with eq⁺, Q must be covered:\n%s", full.Explain())
	}
	eqOnly, err := Check(q, a, s, Options{UseEqOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if eqOnly.Covered != full.Covered {
		t.Fatalf("closure choice changed the verdict: eq+=%v eq=%v", full.Covered, eqOnly.Covered)
	}
}

func TestNoConstraintsNothingCovered(t *testing.T) {
	s := accidentSchema()
	res, err := Check(q0(), access.NewSchema(), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered {
		t.Fatal("nothing should be covered without constraints")
	}
}

func TestUnknownRelation(t *testing.T) {
	s := accidentSchema()
	q := &cq.CQ{Atoms: []cq.Atom{cq.NewAtom("Ghost", cq.Var("x"))}}
	if _, err := Check(q, psi(), s, Options{}); err == nil {
		t.Error("unknown relation must error")
	}
}

// Example 3.5 (second part): Q = Q1 ∪ Q2 over R'(A,B,C) with
// A' = {R'(A -> B, N)}: Q1 covered, Q2 not covered alone but dominated,
// so the UCQ is covered.
func TestExample35_UCQCoverage(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("Rp", "A", "B", "C"))
	ap := access.NewSchema(access.NewConstraint("Rp", attrs("A"), attrs("B"), 4))
	q1 := &cq.CQ{
		Label: "Q1", Free: []string{"y"},
		Atoms: []cq.Atom{cq.NewAtom("Rp", cq.Var("x"), cq.Var("y"), cq.Var("z"))},
		Eqs:   []cq.Eq{{L: cq.Var("x"), R: cq.Const(iv(1))}},
	}
	q2 := &cq.CQ{
		Label: "Q2", Free: []string{"y"},
		Atoms: []cq.Atom{cq.NewAtom("Rp", cq.Var("x"), cq.Var("y"), cq.Var("z"))},
		Eqs: []cq.Eq{
			{L: cq.Var("x"), R: cq.Const(iv(1))},
			{L: cq.Var("z"), R: cq.Var("y")},
		},
	}
	r1, err := Check(q1, ap, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Covered {
		t.Fatalf("Q1 must be covered:\n%s", r1.Explain())
	}
	r2, err := Check(q2, ap, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Covered {
		t.Fatal("Q2 alone must NOT be covered (z=y joins outside the index)")
	}
	ures, err := CheckUCQ([]*cq.CQ{q1, q2}, ap, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ures.Covered {
		t.Fatal("Q1 ∪ Q2 must be covered: Q2 is dominated by Q1")
	}
	if ures.Subs[0] != SubCovered || ures.Subs[1] != SubDominated {
		t.Errorf("sub statuses = %v, want [covered dominated]", ures.Subs)
	}
}

func TestUCQNotCoveredWhenNoDominator(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("Rp", "A", "B", "C"))
	ap := access.NewSchema(access.NewConstraint("Rp", attrs("A"), attrs("B"), 4))
	// Q2 alone (uncovered, nothing to dominate it).
	q2 := &cq.CQ{
		Free:  []string{"y"},
		Atoms: []cq.Atom{cq.NewAtom("Rp", cq.Var("x"), cq.Var("y"), cq.Var("z"))},
		Eqs: []cq.Eq{
			{L: cq.Var("x"), R: cq.Const(iv(1))},
			{L: cq.Var("z"), R: cq.Var("y")},
		},
	}
	ures, err := CheckUCQ([]*cq.CQ{q2}, ap, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ures.Covered {
		t.Fatal("a lone uncovered sub-query cannot be dominated")
	}
	if ures.Subs[0] != SubUncovered {
		t.Errorf("status = %v", ures.Subs[0])
	}
}

func TestExplainOutput(t *testing.T) {
	res, err := Check(q0(), psi(), accidentSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Explain()
	for _, want := range []string{"covered: true", "cov(Q,A)", "indexed by"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestApplicationsRecorded(t *testing.T) {
	res, err := Check(q0(), psi(), accidentSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	apps := res.Analysis.Applications
	if len(apps) == 0 {
		t.Fatal("fixpoint applications must be recorded")
	}
	// First application must be psi1 (date -> aid) on the Accident atom.
	if apps[0].Constraint.Rel != "Accident" || apps[0].Constraint.X[0] != "date" {
		t.Errorf("first application = %v, want psi1 on Accident", apps[0])
	}
	if s := apps[0].String(); !strings.Contains(s, "apply") {
		t.Errorf("Application.String = %q", s)
	}
}

// When two constraints index the same atom, the tightest bound wins, so
// the plan's verification fetches are minimal.
func TestTightestIndexSelected(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R", "A", "B"))
	a := access.NewSchema(
		access.NewConstraint("R", attrs("A"), attrs("B"), 100),
		access.NewConstraint("R", attrs("A"), attrs("B"), 2),
	)
	q := &cq.CQ{
		Free:  []string{"x"},
		Atoms: []cq.Atom{cq.NewAtom("R", cq.Var("c"), cq.Var("x"))},
		Eqs:   []cq.Eq{{L: cq.Var("c"), R: cq.Const(iv(1))}},
	}
	res, err := Check(q, a, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Fatalf("query must be covered:\n%s", res.Explain())
	}
	if got := res.Atoms[0].ConstraintIdx; got != 1 {
		t.Errorf("tightest constraint (bound 2, index 1) should index the atom; got %d", got)
	}
}
