package access

import (
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/schema"
	"repro/internal/value"
)

func accidentSchema() *schema.Schema {
	return schema.MustNew(
		schema.MustRelation("Accident", "aid", "district", "date"),
		schema.MustRelation("Casualty", "cid", "aid", "class", "vid"),
		schema.MustRelation("Vehicle", "vid", "driver", "age"),
	)
}

// psi1..psi4 are the constraints of Example 1.1.
func exampleConstraints() *Schema {
	return NewSchema(
		NewConstraint("Accident", []schema.Attribute{"date"}, []schema.Attribute{"aid"}, 610),
		NewConstraint("Casualty", []schema.Attribute{"aid"}, []schema.Attribute{"vid"}, 192),
		NewConstraint("Accident", []schema.Attribute{"aid"}, []schema.Attribute{"district", "date"}, 1),
		NewConstraint("Vehicle", []schema.Attribute{"vid"}, []schema.Attribute{"driver", "age"}, 1),
	)
}

func TestConstraintValidate(t *testing.T) {
	s := accidentSchema()
	if err := exampleConstraints().Validate(s); err != nil {
		t.Fatalf("example constraints should validate: %v", err)
	}
	bad := NewConstraint("Nope", nil, []schema.Attribute{"x"}, 1)
	if err := bad.Validate(s); err == nil {
		t.Error("unknown relation must be rejected")
	}
	bad = NewConstraint("Accident", []schema.Attribute{"ghost"}, []schema.Attribute{"aid"}, 1)
	if err := bad.Validate(s); err == nil {
		t.Error("unknown X attribute must be rejected")
	}
	bad = NewConstraint("Accident", []schema.Attribute{"aid"}, nil, 1)
	if err := bad.Validate(s); err == nil {
		t.Error("empty Y must be rejected")
	}
	bad = NewConstraint("Accident", []schema.Attribute{"aid"}, []schema.Attribute{"date"}, 0)
	if err := bad.Validate(s); err == nil {
		t.Error("zero bound must be rejected")
	}
}

func TestConstraintString(t *testing.T) {
	c := NewConstraint("Accident", []schema.Attribute{"date"}, []schema.Attribute{"aid"}, 610)
	if got := c.String(); got != "Accident(date -> aid, 610)" {
		t.Errorf("String = %q", got)
	}
	empty := NewConstraint("R", nil, []schema.Attribute{"C"}, 1)
	if got := empty.String(); !strings.Contains(got, "∅") {
		t.Errorf("empty X should render as ∅: %q", got)
	}
}

func TestCardinalityForms(t *testing.T) {
	if got := ConstCard(610).Bound(1 << 20); got != 610 {
		t.Errorf("const bound = %d", got)
	}
	lg := LogCard()
	if lg.IsConst() {
		t.Error("log cardinality should not be const")
	}
	if got := lg.Bound(1023); got != 10 {
		t.Errorf("log2(1024) bound = %d, want 10", got)
	}
	sq := SqrtCard()
	if got := sq.Bound(100); got != 10 {
		t.Errorf("sqrt(100) bound = %d, want 10", got)
	}
	if got := lg.String(); got != "log(|D|)" {
		t.Errorf("log render = %q", got)
	}
}

func smallAccidentInstance(s *schema.Schema) *data.Instance {
	d := data.NewInstance(s)
	// Two accidents on the same date, one elsewhere.
	d.MustInsert("Accident", value.NewInt(1), value.NewString("Queen's Park"), value.NewString("1/5/2005"))
	d.MustInsert("Accident", value.NewInt(2), value.NewString("Soho"), value.NewString("1/5/2005"))
	d.MustInsert("Accident", value.NewInt(3), value.NewString("Soho"), value.NewString("2/5/2005"))
	d.MustInsert("Casualty", value.NewInt(10), value.NewInt(1), value.NewInt(1), value.NewInt(100))
	d.MustInsert("Casualty", value.NewInt(11), value.NewInt(1), value.NewInt(2), value.NewInt(101))
	d.MustInsert("Vehicle", value.NewInt(100), value.NewString("alice"), value.NewInt(34))
	d.MustInsert("Vehicle", value.NewInt(101), value.NewString("bob"), value.NewInt(51))
	return d
}

func TestBuildIndexedSatisfied(t *testing.T) {
	s := accidentSchema()
	a := exampleConstraints()
	d := smallAccidentInstance(s)
	ix, viols, err := BuildIndexed(a, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Fatalf("unexpected violations: %v", viols)
	}
	idx := ix.IndexFor(a.Constraints[0]) // Accident(date -> aid)
	if idx == nil {
		t.Fatal("IndexFor psi1 returned nil")
	}
	got := idx.Fetch([]value.Value{value.NewString("1/5/2005")}).Tuples()
	if len(got) != 2 {
		t.Errorf("aids on 1/5/2005 = %d, want 2", len(got))
	}
}

func TestViolationDetected(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R", "A", "B"))
	d := data.NewInstance(s)
	for i := int64(0); i < 5; i++ {
		d.MustInsert("R", value.NewInt(1), value.NewInt(i))
	}
	a := NewSchema(NewConstraint("R", []schema.Attribute{"A"}, []schema.Attribute{"B"}, 3))
	ok, err := Satisfies(a, d)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("5 B-values for one A should violate bound 3")
	}
	_, viols, err := BuildIndexed(a, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 1 || viols[0].Group != 5 || viols[0].Bound != 3 {
		t.Errorf("violations = %+v", viols)
	}
	if !strings.Contains(viols[0].Error(), "exceeds bound 3") {
		t.Errorf("violation message: %s", viols[0].Error())
	}
}

func TestGeneralFormValidation(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R", "A", "B"))
	d := data.NewInstance(s)
	// 8 tuples total; log2(9)≈3.17 → bound 4. Give A=1 exactly 4 B-values.
	for i := int64(0); i < 4; i++ {
		d.MustInsert("R", value.NewInt(1), value.NewInt(i))
	}
	for i := int64(0); i < 4; i++ {
		d.MustInsert("R", value.NewInt(10+i), value.NewInt(0))
	}
	a := NewSchema(Constraint{Rel: "R", X: []schema.Attribute{"A"}, Y: []schema.Attribute{"B"}, Card: LogCard()})
	ok, err := Satisfies(a, d)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("log-form constraint should be satisfied")
	}
}

func TestForRelationAndSize(t *testing.T) {
	a := exampleConstraints()
	if got := len(a.ForRelation("Accident")); got != 2 {
		t.Errorf("ForRelation(Accident) = %d, want 2", got)
	}
	if got := len(a.ForRelation("Vehicle")); got != 1 {
		t.Errorf("ForRelation(Vehicle) = %d, want 1", got)
	}
	if a.Size() == 0 {
		t.Error("Size should be positive")
	}
}

func TestCoversSchema(t *testing.T) {
	s := accidentSchema()
	if exampleConstraints().CoversSchema(s) {
		// Casualty has cid, class not covered by psi2 (aid -> vid).
		t.Error("example constraints should NOT cover the full schema")
	}
	full := NewSchema(
		NewConstraint("Accident", []schema.Attribute{"aid"}, []schema.Attribute{"district", "date"}, 1),
		NewConstraint("Casualty", []schema.Attribute{"cid"}, []schema.Attribute{"aid", "class", "vid"}, 1),
		NewConstraint("Vehicle", []schema.Attribute{"vid"}, []schema.Attribute{"driver", "age"}, 1),
	)
	if !full.CoversSchema(s) {
		t.Error("key-per-relation schema should cover R (Prop. 5.4 condition)")
	}
}

func TestDiscover(t *testing.T) {
	s := accidentSchema()
	d := smallAccidentInstance(s)
	a := Discover(s, d, 1, 700)
	if len(a.Constraints) == 0 {
		t.Fatal("Discover found nothing")
	}
	// A key-like constraint on Vehicle(vid -> ...) must be discovered with bound 1.
	found := false
	for _, c := range a.Constraints {
		if c.Rel == "Vehicle" && len(c.X) == 1 && c.X[0] == "vid" && c.Card.Const == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected Vehicle(vid -> ..., 1) among discovered: %v", a)
	}
	// Every discovered constraint must actually hold on d.
	ok, err := Satisfies(a, d)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("discovered constraints must be satisfied by the mining instance")
	}
}

func TestIndexForMissing(t *testing.T) {
	s := accidentSchema()
	a := exampleConstraints()
	d := smallAccidentInstance(s)
	ix, _, err := BuildIndexed(a, d)
	if err != nil {
		t.Fatal(err)
	}
	other := NewConstraint("Accident", []schema.Attribute{"district"}, []schema.Attribute{"aid"}, 9)
	if ix.IndexFor(other) != nil {
		t.Error("IndexFor must return nil for absent constraints")
	}
}
