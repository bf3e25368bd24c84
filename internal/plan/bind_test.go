package plan

import (
	"testing"

	"repro/internal/value"
)

func TestBind(t *testing.T) {
	one, two, s := value.NewInt(1), value.NewInt(2), value.NewString("s")
	p := &Plan{Label: "Q", OutCols: []string{"a"}, Steps: []Op{
		ConstOp{Col: "a", Val: one},
		ConstOp{Col: "b", Val: s},
		JoinOp{L: 0, R: 1},
		SelectOp{Input: 2, Conds: []EqCond{{L: "a", R: "b"}, {L: "b", C: s}}},
		ProjectOp{Input: 3, Cols: []string{"a"}},
	}}
	before := p.String()

	got := Bind(p, []value.Value{one, s}, []value.Value{two, value.NewString("t")})
	if got == nil || got == p {
		t.Fatalf("Bind must return a rebound copy, got %v", got)
	}
	want := `plan Q:
  T0 = {2} as a
  T1 = {"t"} as b
  T2 = T0 ⋈ T1
  T3 = σ[a = b ∧ b = "t"](T2)
  T4 = π[a](T3)
  answer: T4(a)`
	if got.String() != want {
		t.Fatalf("rebound plan:\n%s\nwant\n%s", got, want)
	}
	if p.String() != before {
		t.Fatalf("Bind modified its input:\n%s", p)
	}

	if Bind(p, []value.Value{s, one}, []value.Value{s, one}) != p {
		t.Error("a rebinding that changes nothing must return p itself")
	}
	if Bind(p, []value.Value{one}, []value.Value{two}) != nil {
		t.Error("a plan holding a constant outside from cannot be rebound")
	}
	if Bind(p, []value.Value{one, s}, []value.Value{two}) != nil {
		t.Error("from and to of different lengths cannot rebind")
	}
}
