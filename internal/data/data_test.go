package data

import (
	"testing"
	"testing/quick"

	"repro/internal/schema"
	"repro/internal/value"
)

func ints(xs ...int64) Tuple {
	t := make(Tuple, len(xs))
	for i, x := range xs {
		t[i] = value.NewInt(x)
	}
	return t
}

func TestInsertSetSemantics(t *testing.T) {
	r := NewRelation(schema.MustRelation("R", "A", "B"))
	fresh, err := r.Insert(ints(1, 2))
	if err != nil || !fresh {
		t.Fatalf("first insert: fresh=%v err=%v", fresh, err)
	}
	fresh, err = r.Insert(ints(1, 2))
	if err != nil || fresh {
		t.Fatalf("duplicate insert: fresh=%v err=%v", fresh, err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestInsertArityCheck(t *testing.T) {
	r := NewRelation(schema.MustRelation("R", "A", "B"))
	if _, err := r.Insert(ints(1)); err == nil {
		t.Error("arity mismatch must error")
	}
}

func TestContains(t *testing.T) {
	r := NewRelation(schema.MustRelation("R", "A"))
	r.MustInsert(value.NewInt(7))
	if !r.Contains(ints(7)) {
		t.Error("Contains(7) should be true")
	}
	if r.Contains(ints(8)) {
		t.Error("Contains(8) should be false")
	}
}

func TestTupleProjectAndEqual(t *testing.T) {
	tup := Tuple{value.NewInt(1), value.NewString("x"), value.NewInt(3)}
	p := Tuple{tup[2], tup[0]}
	if !p.Equal(Tuple{value.NewInt(3), value.NewInt(1)}) {
		t.Errorf("projection = %v", p)
	}
	if tup.Equal(p) {
		t.Error("tuples of different arity must not be equal")
	}
}

func TestTupleCloneIndependence(t *testing.T) {
	tup := ints(1, 2)
	c := tup.Clone()
	c[0] = value.NewInt(99)
	if tup[0] != value.NewInt(1) {
		t.Error("Clone must not alias the original")
	}
}

func TestInsertCopiesTuple(t *testing.T) {
	r := NewRelation(schema.MustRelation("R", "A"))
	tup := ints(1)
	if _, err := r.Insert(tup); err != nil {
		t.Fatal(err)
	}
	tup[0] = value.NewInt(2)
	if !r.Contains(ints(1)) {
		t.Error("relation must store a copy, not alias caller memory")
	}
}

func TestInstance(t *testing.T) {
	s := schema.MustNew(
		schema.MustRelation("R", "A"),
		schema.MustRelation("S", "B", "C"),
	)
	d := NewInstance(s)
	d.MustInsert("R", value.NewInt(1))
	d.MustInsert("S", value.NewInt(2), value.NewInt(3))
	d.MustInsert("S", value.NewInt(2), value.NewInt(3)) // dup, ignored
	if d.Size() != 2 {
		t.Errorf("Size = %d, want 2", d.Size())
	}
	if err := d.Insert("T", value.NewInt(0)); err == nil {
		t.Error("unknown relation must error")
	}
	if d.Relation("R").Len() != 1 {
		t.Error("R should have 1 tuple")
	}
}

func TestDeleteRoundTrip(t *testing.T) {
	r := NewRelation(schema.MustRelation("R", "A", "B"))
	r.MustInsert(value.NewInt(1), value.NewInt(10))
	r.MustInsert(value.NewInt(2), value.NewInt(20))
	r.MustInsert(value.NewInt(3), value.NewInt(30))

	gone, err := r.Delete(ints(2, 20))
	if err != nil || !gone {
		t.Fatalf("delete present tuple: gone=%v err=%v", gone, err)
	}
	if r.Len() != 2 || r.Contains(ints(2, 20)) {
		t.Fatalf("after delete: Len=%d Contains=%v", r.Len(), r.Contains(ints(2, 20)))
	}
	// Order of the survivors is preserved.
	if !r.Tuples()[0].Equal(ints(1, 10)) || !r.Tuples()[1].Equal(ints(3, 30)) {
		t.Errorf("delete must preserve insertion order: %v", r.Tuples())
	}

	// Deleting an absent tuple is a no-op, not an error.
	gone, err = r.Delete(ints(2, 20))
	if err != nil || gone {
		t.Fatalf("delete absent tuple: gone=%v err=%v", gone, err)
	}

	// Reinsert after delete: the tuple is fresh again.
	fresh, err := r.Insert(ints(2, 20))
	if err != nil || !fresh {
		t.Fatalf("reinsert after delete: fresh=%v err=%v", fresh, err)
	}
	if r.Len() != 3 || !r.Contains(ints(2, 20)) {
		t.Fatalf("after reinsert: Len=%d", r.Len())
	}
	// And deleting it again works (seen bookkeeping stayed consistent).
	if gone, _ = r.Delete(ints(2, 20)); !gone {
		t.Error("delete after reinsert must find the tuple")
	}
}

func TestDeleteArityCheck(t *testing.T) {
	r := NewRelation(schema.MustRelation("R", "A", "B"))
	if _, err := r.Delete(ints(1)); err == nil {
		t.Error("arity mismatch must error")
	}
}

func TestInsertDeleteReinsertQuick(t *testing.T) {
	// Property: replaying a random op sequence, Len and Contains agree
	// with a plain map-backed set at every step.
	f := func(ops []int8) bool {
		r := NewRelation(schema.MustRelation("R", "A"))
		ref := make(map[int64]bool)
		for _, op := range ops {
			x := int64(op) & 7
			if op >= 0 {
				fresh, err := r.Insert(ints(x))
				if err != nil || fresh == ref[x] {
					return false
				}
				ref[x] = true
			} else {
				gone, err := r.Delete(ints(x))
				if err != nil || gone != ref[x] {
					return false
				}
				delete(ref, x)
			}
			if r.Len() != len(ref) || r.Contains(ints(x)) != ref[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelationCloneIndependence(t *testing.T) {
	r := NewRelation(schema.MustRelation("R", "A"))
	r.MustInsert(value.NewInt(1))
	r.MustInsert(value.NewInt(2))
	cl := r.Clone()
	if _, err := cl.Delete(ints(1)); err != nil {
		t.Fatal(err)
	}
	cl.MustInsert(value.NewInt(3))
	if r.Len() != 2 || !r.Contains(ints(1)) || r.Contains(ints(3)) {
		t.Errorf("mutating the clone leaked into the original: %v", r.Tuples())
	}
	if cl.Len() != 2 || cl.Contains(ints(1)) || !cl.Contains(ints(3)) {
		t.Errorf("clone state wrong: %v", cl.Tuples())
	}
}

func TestInstanceCloneWith(t *testing.T) {
	s := schema.MustNew(
		schema.MustRelation("R", "A"),
		schema.MustRelation("S", "B", "C"),
	)
	d := NewInstance(s)
	d.MustInsert("R", value.NewInt(1))
	d.MustInsert("S", value.NewInt(2), value.NewInt(3))

	repl := d.Relation("R").Clone()
	repl.MustInsert(value.NewInt(9))
	cp, err := d.CloneWith(map[string]*Relation{"R": repl})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Relation("S") != d.Relation("S") {
		t.Error("untouched relations must be shared, not copied")
	}
	if cp.Size() != 3 || d.Size() != 2 {
		t.Errorf("sizes: clone=%d original=%d", cp.Size(), d.Size())
	}
	if err := d.Delete("S", value.NewInt(2), value.NewInt(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CloneWith(map[string]*Relation{"T": repl}); err == nil {
		t.Error("replacing an unknown relation must error")
	}
}

func TestSetSemanticsQuick(t *testing.T) {
	// Property: Len equals the number of distinct inserted tuples.
	f := func(xs []int64) bool {
		r := NewRelation(schema.MustRelation("R", "A"))
		distinct := make(map[int64]bool)
		for _, x := range xs {
			distinct[x] = true
			if _, err := r.Insert(ints(x)); err != nil {
				return false
			}
		}
		return r.Len() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeleteBatch(t *testing.T) {
	r := NewRelation(schema.MustRelation("R", "A", "B"))
	for i := int64(0); i < 6; i++ {
		r.MustInsert(value.NewInt(i), value.NewInt(i*10))
	}
	before := r.Tuples() // captured slices must survive the batch
	removed, err := r.DeleteBatch([]Tuple{
		ints(1, 10),
		ints(3, 30),
		ints(3, 30),  // duplicate: counts once
		ints(99, 99), // absent: ignored
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("removed %d tuples, want 2: %v", len(removed), removed)
	}
	if r.Len() != 4 || r.Contains(ints(1, 10)) || r.Contains(ints(3, 30)) {
		t.Fatalf("post-batch state wrong: %v", r.Tuples())
	}
	// Order preserved among survivors.
	want := []int64{0, 2, 4, 5}
	for i, tup := range r.Tuples() {
		if tup[0] != value.NewInt(want[i]) {
			t.Fatalf("order not preserved: %v", r.Tuples())
		}
	}
	// The pre-batch Tuples slice is untouched.
	if len(before) != 6 || !before[1].Equal(ints(1, 10)) {
		t.Error("DeleteBatch mutated a previously returned Tuples slice")
	}
	// Arity errors reject the whole batch.
	if _, err := r.DeleteBatch([]Tuple{ints(1)}); err == nil {
		t.Error("arity mismatch must error")
	}
}
