package plan

import (
	"testing"

	"repro/internal/access"
	"repro/internal/value"
)

func TestBind(t *testing.T) {
	one, two, s := value.NewInt(1), value.NewInt(2), value.NewString("s")
	byA := access.NewConstraint("R", attrs("A"), attrs("B", "C"), 2)
	p := &Plan{Label: "Q", OutCols: []string{"a"}, Steps: []Op{
		ConstOp{Cols: []string{"a", "b", "c"}, Rows: [][]value.Value{{one, s, s}}},
		FetchOp{Input: 0, Constraint: byA, XCols: []string{"a"}, YOut: []string{"b", "c"}},
		ProjectOp{Input: 1, Cols: []string{"a"}},
	}}
	before := p.String()

	got := Bind(p, []value.Value{one, s}, []value.Value{two, value.NewString("t")})
	if got == nil || got == p {
		t.Fatalf("Bind must return a rebound copy, got %v", got)
	}
	want := `plan Q:
  T0 = {(2, "t", "t")} as (a, b, c)
  T1 = fetch(a ∈ T0, R, R(A -> B C, 2))
  T2 = π[a](T1)
  answer: T2(a)`
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
	empty := Empty("E", []string{"a"})
	if Bind(empty, nil, nil) != empty || Bind(empty, []value.Value{one}, []value.Value{two}) != empty {
		t.Error("a plan holding no constant rebinds to itself")
	}
}
