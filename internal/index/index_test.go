package index

import (
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/schema"
	"repro/internal/value"
)

func buildRel(t *testing.T, rows [][]int64) *data.Relation {
	t.Helper()
	r := data.NewRelation(schema.MustRelation("R", "A", "B", "C"))
	for _, row := range rows {
		vals := make([]value.Value, len(row))
		for i, x := range row {
			vals[i] = value.NewInt(x)
		}
		r.MustInsert(vals...)
	}
	return r
}

func TestBuildAndFetch(t *testing.T) {
	r := buildRel(t, [][]int64{{1, 10, 100}, {1, 20, 100}, {2, 30, 200}})
	ix, err := Build(r, []schema.Attribute{"A"}, []schema.Attribute{"B"})
	if err != nil {
		t.Fatal(err)
	}
	got := ix.Fetch([]value.Value{value.NewInt(1)}).Tuples()
	if len(got) != 2 {
		t.Fatalf("Fetch(A=1) returned %d tuples, want 2", len(got))
	}
	if got := ix.Fetch([]value.Value{value.NewInt(9)}).Tuples(); len(got) != 0 {
		t.Errorf("Fetch(A=9) = %v, want empty", got)
	}
}

func TestFetchReturnsDistinctYProjections(t *testing.T) {
	// Two tuples with same (A,B) but different C: D_B(A=1) has ONE element.
	r := buildRel(t, [][]int64{{1, 10, 100}, {1, 10, 200}})
	ix, err := Build(r, []schema.Attribute{"A"}, []schema.Attribute{"B"})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Fetch([]value.Value{value.NewInt(1)}).Tuples(); len(got) != 1 {
		t.Errorf("distinct Y-projection count = %d, want 1", len(got))
	}
}

func TestEmptyXIndex(t *testing.T) {
	// R(∅ -> C, N): single bucket keyed by the empty key.
	r := buildRel(t, [][]int64{{1, 10, 100}, {2, 20, 100}, {3, 30, 300}})
	ix, err := Build(r, nil, []schema.Attribute{"C"})
	if err != nil {
		t.Fatal(err)
	}
	got := ix.Fetch(nil).Tuples()
	if len(got) != 2 { // distinct C values: 100, 300
		t.Errorf("Fetch(∅) = %d tuples, want 2", len(got))
	}
	if ix.Groups() != 1 {
		t.Errorf("Groups = %d, want 1", ix.Groups())
	}
}

func TestMaxGroup(t *testing.T) {
	r := buildRel(t, [][]int64{{1, 10, 0}, {1, 20, 0}, {1, 30, 0}, {2, 40, 0}})
	ix, err := Build(r, []schema.Attribute{"A"}, []schema.Attribute{"B"})
	if err != nil {
		t.Fatal(err)
	}
	if ix.MaxGroup() != 3 {
		t.Errorf("MaxGroup = %d, want 3", ix.MaxGroup())
	}
}

func TestCompositeKeys(t *testing.T) {
	r := buildRel(t, [][]int64{{1, 2, 100}, {1, 3, 200}, {2, 2, 300}})
	ix, err := Build(r, []schema.Attribute{"A", "B"}, []schema.Attribute{"C"})
	if err != nil {
		t.Fatal(err)
	}
	got := ix.Fetch([]value.Value{value.NewInt(1), value.NewInt(2)}).Tuples()
	if len(got) != 1 || got[0][0] != value.NewInt(100) {
		t.Errorf("Fetch(1,2) = %v", got)
	}
}

func TestBadAttributes(t *testing.T) {
	r := buildRel(t, nil)
	if _, err := Build(r, []schema.Attribute{"Z"}, nil); err == nil {
		t.Error("unknown X attribute must error")
	}
	if _, err := Build(r, nil, []schema.Attribute{"Z"}); err == nil {
		t.Error("unknown Y attribute must error")
	}
}

func TestKeyIndexProperty(t *testing.T) {
	// Property: for an index on A for B, Fetch(a) returns exactly the distinct
	// B-values of rows whose A equals a.
	f := func(rows []struct{ A, B int8 }) bool {
		r := data.NewRelation(schema.MustRelation("R", "A", "B", "C"))
		want := make(map[int8]map[int8]bool)
		for _, row := range rows {
			r.MustInsert(value.NewInt(int64(row.A)), value.NewInt(int64(row.B)), value.NewInt(0))
			if want[row.A] == nil {
				want[row.A] = make(map[int8]bool)
			}
			want[row.A][row.B] = true
		}
		ix, err := Build(r, []schema.Attribute{"A"}, []schema.Attribute{"B"})
		if err != nil {
			return false
		}
		for a, bs := range want {
			got := ix.Fetch([]value.Value{value.NewInt(int64(a))}).Tuples()
			if len(got) != len(bs) {
				return false
			}
			for _, tup := range got {
				if !bs[int8(tup[0].Int())] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mirror rebuilds an index from scratch and asserts it matches ix exactly:
// same keys, and for each key the same set of Y-projections.
func assertSameIndex(t *testing.T, ix *Index, r *data.Relation, x, y []schema.Attribute) {
	t.Helper()
	ref, err := Build(r, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ix.Groups(), ref.Groups(); got != want {
		t.Fatalf("Groups = %d, rebuild says %d", got, want)
	}
	for _, k := range ref.Keys() {
		got, want := ix.FetchKey(k).Tuples(), ref.FetchKey(k).Tuples()
		if len(got) != len(want) {
			t.Fatalf("key %q: %d projections, rebuild says %d", k, len(got), len(want))
		}
		seen := make(map[string]bool, len(got))
		for _, p := range got {
			seen[string(p.Key())] = true
		}
		for _, p := range want {
			if !seen[string(p.Key())] {
				t.Fatalf("key %q: projection %v missing from incremental index", k, p)
			}
		}
	}
}

func TestIncrementalInsertDelete(t *testing.T) {
	rs := schema.MustRelation("Casualty", "cid", "aid", "vid")
	r := data.NewRelation(rs)
	x, y := []schema.Attribute{"aid"}, []schema.Attribute{"vid"}
	ix, err := New(rs, x, y)
	if err != nil {
		t.Fatal(err)
	}
	ins := func(cid, aid, vid int64) data.Tuple {
		tup := data.Tuple{value.NewInt(cid), value.NewInt(aid), value.NewInt(vid)}
		if fresh, err := r.Insert(tup); err != nil || !fresh {
			t.Fatalf("insert: fresh=%v err=%v", fresh, err)
		}
		ix.Insert(tup)
		return tup
	}
	del := func(tup data.Tuple) {
		if gone, err := r.Delete(tup); err != nil || !gone {
			t.Fatalf("delete: gone=%v err=%v", gone, err)
		}
		ix.Delete(tup)
	}

	// Two distinct tuples witnessing the SAME (aid, vid) pair: deleting
	// one must keep the projection, deleting both must drop it.
	t1 := ins(1, 10, 100)
	t2 := ins(2, 10, 100)
	t3 := ins(3, 10, 101)
	assertSameIndex(t, ix, r, x, y)
	if g := len(ix.Fetch([]value.Value{value.NewInt(10)}).Tuples()); g != 2 {
		t.Fatalf("bucket for aid=10 has %d projections, want 2", g)
	}
	del(t1)
	assertSameIndex(t, ix, r, x, y)
	if g := len(ix.Fetch([]value.Value{value.NewInt(10)}).Tuples()); g != 2 {
		t.Fatalf("after deleting one of two witnesses: %d projections, want 2", g)
	}
	del(t2)
	assertSameIndex(t, ix, r, x, y)
	if g := len(ix.Fetch([]value.Value{value.NewInt(10)}).Tuples()); g != 1 {
		t.Fatalf("after deleting both witnesses: %d projections, want 1", g)
	}
	del(t3)
	if ix.Groups() != 0 {
		t.Fatalf("empty relation must have no groups, got %d", ix.Groups())
	}
	assertSameIndex(t, ix, r, x, y)

	// Reinsert after full deletion.
	ins(4, 10, 100)
	assertSameIndex(t, ix, r, x, y)
}

func TestIncrementalMatchesRebuildQuick(t *testing.T) {
	// Property: replaying any op sequence, the incrementally maintained
	// index equals a from-scratch rebuild.
	f := func(ops []struct{ A, B, Del int8 }) bool {
		rs := schema.MustRelation("R", "A", "B", "C")
		r := data.NewRelation(rs)
		x, y := []schema.Attribute{"A"}, []schema.Attribute{"B"}
		ix, err := New(rs, x, y)
		if err != nil {
			return false
		}
		for i, op := range ops {
			tup := data.Tuple{
				value.NewInt(int64(op.A & 3)),
				value.NewInt(int64(op.B & 3)),
				value.NewInt(int64(i & 7)), // C varies: distinct tuples share (A,B)
			}
			if op.Del&1 == 0 {
				if fresh, err := r.Insert(tup); err != nil {
					return false
				} else if fresh {
					ix.Insert(tup)
				}
			} else {
				if gone, err := r.Delete(tup); err != nil {
					return false
				} else if gone {
					ix.Delete(tup)
				}
			}
		}
		ref, err := Build(r, x, y)
		if err != nil {
			return false
		}
		if ix.Groups() != ref.Groups() || ix.MaxGroup() != ref.MaxGroup() {
			return false
		}
		for _, k := range ref.Keys() {
			if len(ix.FetchKey(k).Tuples()) != len(ref.FetchKey(k).Tuples()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneIsolation(t *testing.T) {
	rs := schema.MustRelation("R", "A", "B")
	r := data.NewRelation(rs)
	for i := int64(0); i < 4; i++ {
		r.MustInsert(value.NewInt(i%2), value.NewInt(i))
	}
	ix, err := Build(r, []schema.Attribute{"A"}, []schema.Attribute{"B"})
	if err != nil {
		t.Fatal(err)
	}
	before := len(ix.Fetch([]value.Value{value.NewInt(0)}).Tuples())

	cl := ix.Clone()
	cl.Insert(data.Tuple{value.NewInt(0), value.NewInt(99)})
	cl.Delete(data.Tuple{value.NewInt(1), value.NewInt(1)})

	if got := len(ix.Fetch([]value.Value{value.NewInt(0)}).Tuples()); got != before {
		t.Errorf("clone insert leaked into original: %d, want %d", got, before)
	}
	if got := len(ix.Fetch([]value.Value{value.NewInt(1)}).Tuples()); got != 2 {
		t.Errorf("clone delete leaked into original: %d, want 2", got)
	}
	if got := len(cl.Fetch([]value.Value{value.NewInt(0)}).Tuples()); got != before+1 {
		t.Errorf("clone missing its own insert: %d, want %d", got, before+1)
	}
}

func TestCloneIsolationBothDirections(t *testing.T) {
	// After Clone, mutations on the ORIGINAL must not leak into the clone
	// either: Clone renounces in-place bucket mutation on both sides.
	rs := schema.MustRelation("R", "A", "B")
	r := data.NewRelation(rs)
	r.MustInsert(value.NewInt(0), value.NewInt(1))
	ix, err := Build(r, []schema.Attribute{"A"}, []schema.Attribute{"B"})
	if err != nil {
		t.Fatal(err)
	}
	cl := ix.Clone()
	ix.Insert(data.Tuple{value.NewInt(0), value.NewInt(2)})
	ix.Delete(data.Tuple{value.NewInt(0), value.NewInt(1)})
	if got := len(cl.Fetch([]value.Value{value.NewInt(0)}).Tuples()); got != 1 {
		t.Errorf("original's mutations leaked into the clone: %d projections, want 1", got)
	}
	b := cl.Fetch([]value.Value{value.NewInt(0)}).Tuples()
	if b[0][0] != value.NewInt(1) {
		t.Errorf("clone bucket content changed: %v", b)
	}
}

// TestCanonicalBucketOrder pins the partition-invariance property that
// internal/shard's scatter-gather merge relies on: whatever order (and
// delete/insert history) tuples arrive in, a bucket holds its distinct
// Y-projections sorted by their key encoding, so two indexes over the
// same tuple SET serve byte-identical buckets.
func TestCanonicalBucketOrder(t *testing.T) {
	rs := schema.MustRelation("R", "A", "B", "C")
	mk := func(a, b, c int64) data.Tuple {
		return data.Tuple{value.NewInt(a), value.NewInt(b), value.NewInt(c)}
	}
	tuples := []data.Tuple{mk(1, 9, 0), mk(1, 3, 1), mk(1, 7, 2), mk(1, 1, 3), mk(1, 5, 4)}

	fwd := data.NewRelation(rs)
	rev := data.NewRelation(rs)
	for _, tp := range tuples {
		fwd.MustInsert(tp...)
	}
	for i := len(tuples) - 1; i >= 0; i-- {
		rev.MustInsert(tuples[i]...)
	}
	x, y := []schema.Attribute{"A"}, []schema.Attribute{"B"}
	ixF, err := Build(fwd, x, y)
	if err != nil {
		t.Fatal(err)
	}
	ixR, err := Build(rev, x, y)
	if err != nil {
		t.Fatal(err)
	}
	bF := ixF.Fetch([]value.Value{value.NewInt(1)}).Tuples()
	bR := ixR.Fetch([]value.Value{value.NewInt(1)}).Tuples()
	if len(bF) != len(tuples) || len(bR) != len(tuples) {
		t.Fatalf("bucket sizes %d/%d, want %d", len(bF), len(bR), len(tuples))
	}
	for i := range bF {
		if i > 0 && !(bF[i-1].Key() < bF[i].Key()) {
			t.Fatalf("bucket not in canonical order at %d: %v", i, bF)
		}
		if bF[i].Key() != bR[i].Key() {
			t.Fatalf("insertion order leaked into bucket order: %v vs %v", bF, bR)
		}
	}

	// Delete + reinsert in a different relative position: still canonical.
	ixF.Delete(mk(1, 1, 3))
	ixF.Insert(mk(1, 1, 3))
	bF = ixF.Fetch([]value.Value{value.NewInt(1)}).Tuples()
	for i := 1; i < len(bF); i++ {
		if !(bF[i-1].Key() < bF[i].Key()) {
			t.Fatalf("delete/reinsert broke canonical order: %v", bF)
		}
	}
}

// TestInstallBucketFlatRejectsNonCanonical feeds the recovery installer
// each malformed bucket a corrupt checkpoint could carry: every one
// must be refused.
func TestInstallBucketFlatRejectsNonCanonical(t *testing.T) {
	rs := schema.MustRelation("R", "A", "B", "C")
	x := []schema.Attribute{"A"}
	y := []schema.Attribute{"B", "C"}
	iv := value.NewInt
	lo, hi := []value.Value{iv(1), iv(1)}, []value.Value{iv(2), iv(1)}
	loKey, hiKey := value.KeyOf(lo...), value.KeyOf(hi...)
	if loKey >= hiKey {
		t.Fatal("fixture projections not in canonical order")
	}
	cells := func(ps ...[]value.Value) []value.Value {
		var out []value.Value
		for _, p := range ps {
			out = append(out, p...)
		}
		return out
	}
	k := value.KeyOf(iv(7))
	for _, tc := range []struct {
		name   string
		cells  []value.Value
		keys   []value.Key
		counts []int
		twice  bool
	}{
		{"out of canonical order", cells(hi, lo), []value.Key{hiKey, loKey}, []int{1, 1}, false},
		{"multiplicity below 1", cells(lo, hi), []value.Key{loKey, hiKey}, []int{1, 0}, false},
		{"cells not keys × stride", cells(lo, hi)[:3], []value.Key{loKey, hiKey}, []int{1, 1}, false},
		{"installed twice", cells(lo, hi), []value.Key{loKey, hiKey}, []int{1, 1}, true},
	} {
		ix, err := New(rs, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if tc.twice {
			if err := ix.InstallBucketFlat(k, cells(lo), []value.Key{loKey}, []int{1}); err != nil {
				t.Fatalf("%s: first install: %v", tc.name, err)
			}
		}
		if err := ix.InstallBucketFlat(k, tc.cells, tc.keys, tc.counts); err == nil {
			t.Errorf("%s: installed without error", tc.name)
		}
	}
}
