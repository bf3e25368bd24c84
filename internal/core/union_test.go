package core

import (
	"context"
	"testing"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/posfo"
	"repro/internal/schema"
	"repro/internal/ucq"
	"repro/internal/value"
)

func iv(i int64) value.Value { return value.NewInt(i) }

func example35Engine(t *testing.T) (*Engine, *ucq.UCQ) {
	t.Helper()
	s := schema.MustNew(schema.MustRelation("Rp", "A", "B", "C"))
	ap := access.NewSchema(access.NewConstraint("Rp",
		[]schema.Attribute{"A"}, []schema.Attribute{"B"}, 4))
	q1 := &cq.CQ{Label: "Q1", Free: []string{"y"},
		Atoms: []cq.Atom{cq.NewAtom("Rp", cq.Var("x"), cq.Var("y"), cq.Var("z"))},
		Eqs:   []cq.Eq{{L: cq.Var("x"), R: cq.Const(iv(1))}}}
	q2 := &cq.CQ{Label: "Q2", Free: []string{"y"},
		Atoms: []cq.Atom{cq.NewAtom("Rp", cq.Var("x"), cq.Var("y"), cq.Var("z"))},
		Eqs: []cq.Eq{
			{L: cq.Var("x"), R: cq.Const(iv(1))},
			{L: cq.Var("z"), R: cq.Var("y")},
		}}
	u, err := ucq.New("U35", q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(s, ap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := data.NewInstance(s)
	d.MustInsert("Rp", iv(1), iv(10), iv(10))
	d.MustInsert("Rp", iv(1), iv(20), iv(99))
	d.MustInsert("Rp", iv(2), iv(30), iv(30))
	if err := eng.Load(d); err != nil {
		t.Fatal(err)
	}
	return eng, u
}

func TestEngineUCQPipeline(t *testing.T) {
	eng, u := example35Engine(t)
	got, err := eng.Query(context.Background(), u, WithFallback(FallbackRefuse))
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != ViaBoundedPlan {
		t.Fatalf("mode = %v, want bounded plan", got.Mode)
	}
	if err := got.Plan.ConformsTo(plan.LangUCQ); err != nil {
		t.Fatal(err)
	}
	if got.Bound.Fetched <= 0 {
		t.Errorf("bound = %v", got.Bound)
	}
	want, err := u.Eval(eng.Instance(), eval.ScanJoin)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("bounded=%d naive=%d", len(got.Rows), len(want.Rows))
	}
	if got.Stats.Fetched > got.Bound.Fetched {
		t.Errorf("fetched %d > bound %d", got.Stats.Fetched, got.Bound.Fetched)
	}
}

func TestQueryUCQBothPaths(t *testing.T) {
	eng, u := example35Engine(t)
	res, err := eng.Query(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ViaBoundedPlan {
		t.Errorf("covered UCQ should use the bounded plan: %v", res.Mode)
	}
	// An uncovered union (no anchor) falls back.
	open := &cq.CQ{Label: "open", Free: []string{"y"},
		Atoms: []cq.Atom{cq.NewAtom("Rp", cq.Var("x"), cq.Var("y"), cq.Var("z"))}}
	u2, err := ucq.New("U2", open)
	if err != nil {
		t.Fatal(err)
	}
	res, err = eng.Query(context.Background(), u2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ViaFullScan {
		t.Errorf("uncovered UCQ should fall back: %v", res.Mode)
	}
}

func TestQueryPosFO(t *testing.T) {
	eng, _ := example35Engine(t)
	// Q(y) :- Rp(1, y, z) ∨ Rp(y, w, 30): a genuine ∃FO⁺ disjunction.
	q := &posfo.Query{
		Label: "P", Free: []string{"y"},
		Body: posfo.Or{Fs: []posfo.Formula{
			posfo.Atom{Rel: "Rp", Args: []cq.Term{cq.Const(iv(1)), cq.Var("y"), cq.Var("z")}},
			posfo.Atom{Rel: "Rp", Args: []cq.Term{cq.Var("y"), cq.Var("w"), cq.Const(iv(30))}},
		}},
	}
	res, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// {10, 20} from the first disjunct, {2} from the second.
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}
