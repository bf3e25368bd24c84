package plan

import (
	"testing"

	"repro/internal/cover"
	"repro/internal/value"
)

func TestBuiltCQPlanConformsToCQ(t *testing.T) {
	res, err := cover.Check(q0(), psi(), accidentSchema(), cover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ConformsTo(LangCQ); err != nil {
		t.Errorf("CQ plan must conform to the CQ grammar: %v", err)
	}
	if err := p.ConformsTo(LangPosFO); err != nil {
		t.Errorf("CQ plan conforms to every superset grammar: %v", err)
	}
}

func TestUnionPlacementRules(t *testing.T) {
	c := func(col string) Op { return lit(col, value.NewInt(1)) }
	trailing := &Plan{Steps: []Op{c("a"), c("a"), UnionOp{L: 0, R: 1}}, OutCols: []string{"a"}}
	if err := trailing.ConformsTo(LangUCQ); err != nil {
		t.Errorf("trailing union is legal UCQ: %v", err)
	}
	if err := trailing.ConformsTo(LangCQ); err == nil {
		t.Error("union is illegal in CQ plans")
	}
	if err := trailing.ConformsTo(LangPosFO); err != nil {
		t.Errorf("∃FO⁺ allows unions anywhere: %v", err)
	}
	// A union feeding a later projection violates the UCQ grammar.
	interior := &Plan{Steps: []Op{
		c("a"), c("a"), UnionOp{L: 0, R: 1}, ProjectOp{Input: 2, Cols: []string{"a"}},
	}, OutCols: []string{"a"}}
	if err := interior.ConformsTo(LangUCQ); err == nil {
		t.Error("interior union violates the UCQ grammar")
	}
	if err := interior.ConformsTo(LangPosFO); err != nil {
		t.Errorf("interior union is fine in ∃FO⁺: %v", err)
	}
}

func TestBuiltUCQPlanConformsToUCQ(t *testing.T) {
	// Reuse the Example 3.5 UCQ from plan_test.go's TestUCQPlan shape.
	res, err := cover.Check(q0(), psi(), accidentSchema(), cover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ures := &cover.UCQResult{
		Covered:    true,
		Subs:       []cover.SubStatus{cover.SubCovered, cover.SubCovered},
		SubResults: []*cover.Result{res, res},
	}
	p, err := BuildUCQ(ures)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ConformsTo(LangUCQ); err != nil {
		t.Errorf("BuildUCQ output must conform to the UCQ grammar: %v", err)
	}
	if err := p.ConformsTo(LangCQ); err == nil {
		t.Error("a two-branch union is not a CQ plan")
	}
}

func TestLanguageStrings(t *testing.T) {
	for _, l := range []Language{LangCQ, LangUCQ, LangPosFO} {
		if l.String() == "" {
			t.Errorf("language %d has empty rendering", int(l))
		}
	}
}
