package ucq

import (
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/ainstance"
	"repro/internal/cover"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/value"
)

func iv(i int64) value.Value                          { return value.NewInt(i) }
func attrs(as ...schema.Attribute) []schema.Attribute { return as }

func q(label string, free []string, atoms []cq.Atom, eqs []cq.Eq) *cq.CQ {
	return &cq.CQ{Label: label, Free: free, Atoms: atoms, Eqs: eqs}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("U"); err == nil {
		t.Error("empty union must be rejected")
	}
	q1 := q("q1", []string{"x"}, []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("y"))}, nil)
	q2 := q("q2", []string{"x", "y"}, []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("y"))}, nil)
	if _, err := New("U", q1, q2); err == nil {
		t.Error("arity mismatch must be rejected")
	}
	u, err := New("U", q1)
	if err != nil {
		t.Fatal(err)
	}
	if u.Arity() != 1 {
		t.Errorf("arity = %d", u.Arity())
	}
}

func TestSagivYannakakisContainment(t *testing.T) {
	// path2 ∪ selfloop  ⊆  edge  (each sub maps into the single edge query)
	edge := q("edge", []string{"x"}, []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("y"))}, nil)
	path2 := q("path2", []string{"x"}, []cq.Atom{
		cq.NewAtom("R", cq.Var("x"), cq.Var("y")),
		cq.NewAtom("R", cq.Var("y"), cq.Var("z")),
	}, nil)
	loop := q("loop", []string{"x"}, []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("x"))}, nil)
	u1, _ := New("U1", path2, loop)
	u2, _ := New("U2", edge)
	if !Contains(u1, u2) {
		t.Error("path2 ∪ loop ⊆ edge must hold")
	}
	if Contains(u2, u1) {
		t.Error("edge ⊄ path2 ∪ loop")
	}
	if Equivalent(u1, u2) {
		t.Error("not equivalent")
	}
}

func TestEvalUnion(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R", "A", "B"))
	d := data.NewInstance(s)
	d.MustInsert("R", iv(1), iv(2))
	d.MustInsert("R", iv(3), iv(3))
	edgeFrom1 := q("e1", []string{"y"},
		[]cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("y"))},
		[]cq.Eq{{L: cq.Var("x"), R: cq.Const(iv(1))}})
	loops := q("loops", []string{"y"},
		[]cq.Atom{cq.NewAtom("R", cq.Var("y"), cq.Var("y"))}, nil)
	u, _ := New("U", edgeFrom1, loops)
	if err := u.Validate(s); err != nil {
		t.Fatal(err)
	}
	res, err := u.Eval(d, eval.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // {2} ∪ {3}
		t.Errorf("rows = %v", res.Rows)
	}
}

// Example 3.5 again, through the UCQ type: A-containment of the union vs
// its disjuncts.
func TestAContainment(t *testing.T) {
	s := schema.MustNew(
		schema.MustRelation("R", "X"),
		schema.MustRelation("S", "A", "B"),
	)
	a := access.NewSchema(access.NewConstraint("R", nil, attrs("X"), 2))
	base := []cq.Atom{
		cq.NewAtom("R", cq.Const(iv(1))),
		cq.NewAtom("R", cq.Const(iv(0))),
		cq.NewAtom("S", cq.Var("x"), cq.Var("y")),
		cq.NewAtom("R", cq.Var("y")),
	}
	whole := q("Q", []string{"x"}, base, nil)
	q1 := q("Q1", []string{"x"},
		[]cq.Atom{cq.NewAtom("S", cq.Var("x"), cq.Var("y")), cq.NewAtom("R", cq.Var("y"))},
		[]cq.Eq{{L: cq.Var("y"), R: cq.Const(iv(1))}})
	q2 := q("Q2", []string{"x"},
		[]cq.Atom{cq.NewAtom("S", cq.Var("x"), cq.Var("y")), cq.NewAtom("R", cq.Var("y"))},
		[]cq.Eq{{L: cq.Var("y"), R: cq.Const(iv(0))}})
	uQ, _ := New("UQ", whole)
	uU, _ := New("UU", q1, q2)
	ok, err := ainstance.UCQContained(uQ.Subs, uU.Subs, a, s, ainstance.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("Q ⊑A Q1 ∪ Q2 must hold")
	}
	// Classical containment does NOT hold (no single disjunct contains Q).
	if Contains(uQ, uU) {
		t.Error("classical Sagiv-Yannakakis containment must fail here")
	}
}

func TestCoveredAndPlan(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("Rp", "A", "B", "C"))
	ap := access.NewSchema(access.NewConstraint("Rp", attrs("A"), attrs("B"), 4))
	q1 := q("Q1", []string{"y"},
		[]cq.Atom{cq.NewAtom("Rp", cq.Var("x"), cq.Var("y"), cq.Var("z"))},
		[]cq.Eq{{L: cq.Var("x"), R: cq.Const(iv(1))}})
	q2 := q("Q2", []string{"y"},
		[]cq.Atom{cq.NewAtom("Rp", cq.Var("x"), cq.Var("y"), cq.Var("z"))},
		[]cq.Eq{
			{L: cq.Var("x"), R: cq.Const(iv(1))},
			{L: cq.Var("z"), R: cq.Var("y")},
		})
	u, _ := New("U35", q1, q2)
	res, err := cover.CheckUCQ(u.Subs, ap, s, cover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Fatal("Example 3.5 union must be covered")
	}
	p, err := plan.BuildUCQ(res)
	if err != nil {
		t.Fatal(err)
	}
	// Execute and compare against naive union evaluation.
	d := data.NewInstance(s)
	d.MustInsert("Rp", iv(1), iv(10), iv(10))
	d.MustInsert("Rp", iv(1), iv(20), iv(9))
	d.MustInsert("Rp", iv(2), iv(30), iv(30))
	ix, viols, err := access.BuildIndexed(ap, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Fatalf("violations: %v", viols)
	}
	got, _, err := plan.Execute(p, ix)
	if err != nil {
		t.Fatal(err)
	}
	want, err := u.Eval(d, eval.ScanJoin)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(want.Rows) {
		t.Errorf("plan=%d naive=%d", got.Len(), len(want.Rows))
	}
}

func TestStringRendering(t *testing.T) {
	q1 := q("A", nil, []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("y"))}, nil)
	q2 := q("B", nil, []cq.Atom{cq.NewAtom("R", cq.Var("y"), cq.Var("x"))}, nil)
	u, _ := New("U", q1, q2)
	if out := u.String(); !strings.Contains(out, "∪") {
		t.Errorf("rendering: %q", out)
	}
}
