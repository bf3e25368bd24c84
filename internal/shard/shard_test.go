package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/live"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workload"
)

func iv(i int64) value.Value  { return value.NewInt(i) }
func sv(s string) value.Value { return value.NewString(s) }

// newAccidents builds matching single-node and sharded engines over the
// same generated instance.
func newAccidents(t *testing.T, k, days int) (*core.Engine, *Engine) {
	t.Helper()
	gen := func() *workload.Accidents {
		acc, err := workload.GenerateAccidents(workload.AccidentConfig{
			Days: days, AccidentsPerDay: 20, MaxVehicles: 4, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	acc := gen()
	single, err := core.New(acc.Schema, acc.Access, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Load(acc.Instance); err != nil {
		t.Fatal(err)
	}
	acc2 := gen()
	sharded, err := New(acc2.Schema, acc2.Access, Options{Shards: k})
	if err != nil {
		t.Fatal(err)
	}
	if err := sharded.Load(acc2.Instance); err != nil {
		t.Fatal(err)
	}
	return single, sharded
}

func sameResults(t *testing.T, want, got *core.Result) {
	t.Helper()
	if want.Mode != got.Mode {
		t.Fatalf("mode %v vs %v", got.Mode, want.Mode)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("row counts %d vs %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if want.Rows[i].Key() != got.Rows[i].Key() {
			t.Fatalf("row %d differs: %v vs %v", i, got.Rows[i], want.Rows[i])
		}
	}
}

// TestDefaultPartitionKeys pins the derivation rule: X of the first
// constraint with nonempty X, all attributes otherwise.
func TestDefaultPartitionKeys(t *testing.T) {
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{Days: 1, AccidentsPerDay: 2, MaxVehicles: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(acc.Schema, acc.Access, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for rel, want := range map[string]string{
		"Accident": "date", // ψ1, not ψ3
		"Casualty": "aid",  // ψ2
		"Vehicle":  "vid",  // ψ4
	} {
		pk := e.PartitionKey(rel)
		if len(pk) != 1 || string(pk[0]) != want {
			t.Errorf("partition key of %s = %v, want [%s]", rel, pk, want)
		}
	}
	// A relation with no constraint partitions by all attributes.
	s := schema.MustNew(schema.MustRelation("Lone", "a", "b"))
	e2, err := New(s, access.NewSchema(), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pk := e2.PartitionKey("Lone"); len(pk) != 2 {
		t.Errorf("unconstrained relation partition key = %v, want all attrs", pk)
	}
}

// TestQueryMatchesSingleNode runs the flagship bounded query and a scan
// fallback on 1/2/4 shards and demands byte-identical results.
func TestQueryMatchesSingleNode(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		single, sharded := newAccidents(t, k, 4)
		want, err := single.Query(context.Background(), workload.Q0())
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Query(context.Background(), workload.Q0())
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		sameResults(t, want, got)
		if got.Mode != core.ViaBoundedPlan {
			t.Fatalf("Q0 must serve via bounded plan, got %v", got.Mode)
		}
	}
}

// TestStreamingMatchesMaterialized drains a streamed sharded result and
// compares it to the materialized rows.
func TestStreamingMatchesMaterialized(t *testing.T) {
	_, sharded := newAccidents(t, 4, 3)
	mat, err := sharded.Query(context.Background(), workload.Q0())
	if err != nil {
		t.Fatal(err)
	}
	st, err := sharded.Query(context.Background(), workload.Q0(), core.WithStream())
	if err != nil {
		t.Fatal(err)
	}
	var rows []data.Tuple
	for row := range st.Seq() {
		rows = append(rows, row)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(mat.Rows) {
		t.Fatalf("streamed %d rows, materialized %d", len(rows), len(mat.Rows))
	}
	for i := range rows {
		if rows[i].Key() != mat.Rows[i].Key() {
			t.Fatalf("row %d differs", i)
		}
	}
}

// TestBudgetIsNotMultipliedByShards pins the admission-control rule: the
// bound compared against -budget is the one plan's bound, identical to
// the single-node bound — NOT K times it. A budget that admits the
// query unsharded must admit it on 8 shards.
func TestBudgetIsNotMultipliedByShards(t *testing.T) {
	single, sharded := newAccidents(t, 8, 3)
	_, b, err := single.Plan(workload.Q0())
	if err != nil {
		t.Fatal(err)
	}
	_, bs, err := sharded.Plan(workload.Q0())
	if err != nil {
		t.Fatal(err)
	}
	if bs.Fetched != b.Fetched {
		t.Fatalf("sharded bound %d != single-node bound %d", bs.Fetched, b.Fetched)
	}
	if _, err := sharded.Query(context.Background(), workload.Q0(),
		core.WithAccessBudget(b.Fetched), core.WithFallback(core.FallbackRefuse)); err != nil {
		t.Fatalf("budget equal to the single-node bound must admit on 8 shards: %v", err)
	}
	var be *core.BudgetError
	_, err = sharded.Query(context.Background(), workload.Q0(), core.WithAccessBudget(b.Fetched-1))
	if !errors.As(err, &be) {
		t.Fatalf("budget below the bound must refuse, got %v", err)
	}
}

// TestApplyCrossShardViolation is the case per-shard validation cannot
// catch: two inserts with the same aid but different dates land on
// DIFFERENT shards (Accident partitions by date), each shard's local
// ψ3 group has size 1, yet the global group has size 2 > 1. The
// coordinator must reject exactly as a single-node engine does, and no
// shard may publish.
func TestApplyCrossShardViolation(t *testing.T) {
	single, sharded := newAccidents(t, 4, 2)
	bad := live.NewDelta(workload.AccidentSchema())
	bad.MustInsert("Accident", iv(900001), sv("Soho"), sv("7/7/1997"))
	bad.MustInsert("Accident", iv(900001), sv("Leith"), sv("8/8/1998"))

	_, errSingle := single.Apply(context.Background(), bad)
	var vs *live.ViolationError
	if !errors.As(errSingle, &vs) {
		t.Fatalf("single-node engine must reject: %v", errSingle)
	}

	before := sharded.Stats().Size
	_, errShard := sharded.Apply(context.Background(), bad)
	var vh *live.ViolationError
	if !errors.As(errShard, &vh) {
		t.Fatalf("sharded engine must reject the cross-shard ψ3 violation: %v", errShard)
	}
	if len(vh.Violations) != len(vs.Violations) {
		t.Fatalf("violation lists differ: %v vs %v", vh.Violations, vs.Violations)
	}
	for i := range vs.Violations {
		if vh.Violations[i].Group != vs.Violations[i].Group || vh.Violations[i].Bound != vs.Violations[i].Bound {
			t.Fatalf("violation %d differs: %+v vs %+v", i, vh.Violations[i], vs.Violations[i])
		}
	}
	// No visible effect anywhere: size unchanged, the tuples absent.
	if got := sharded.Stats().Size; got != before {
		t.Fatalf("rejected delta changed |D|: %d -> %d", before, got)
	}
	if sharded.Instance().Relation("Accident").Contains(data.Tuple{iv(900001), sv("Soho"), sv("7/7/1997")}) {
		t.Fatal("rejected delta published a tuple")
	}
}

// TestApplyValidMatchesSingleNode applies the same constraint-preserving
// stream to both engines and compares sizes, counts and query results
// after every batch.
func TestApplyValidMatchesSingleNode(t *testing.T) {
	single, sharded := newAccidents(t, 4, 2)
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: 2, AccidentsPerDay: 20, MaxVehicles: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := workload.NewAccidentStream(acc, workload.AccidentStreamConfig{
		InsertAccidents: 4, DeleteAccidents: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 10; batch++ {
		delta := st.Next()
		rs, err := single.Apply(context.Background(), delta)
		if err != nil {
			t.Fatal(err)
		}
		rh, err := sharded.Apply(context.Background(), delta)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if rs.Inserted != rh.Inserted || rs.Deleted != rh.Deleted {
			t.Fatalf("batch %d: counts (%d,%d) vs (%d,%d)", batch, rh.Inserted, rh.Deleted, rs.Inserted, rs.Deleted)
		}
		if single.Stats().Size != sharded.Stats().Size {
			t.Fatalf("batch %d: sizes %d vs %d", batch, sharded.Stats().Size, single.Stats().Size)
		}
		want, err := single.Query(context.Background(), workload.Q0())
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Query(context.Background(), workload.Q0())
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, want, got)
	}
}

// TestGeneralFormBoundsUseGlobalSize builds a dataset that is valid at
// the GLOBAL |D| but would be rejected by any shard validating at its
// local size: one sqrt-bounded group of 9 on |D| = 100 (bound 10),
// where the group's shard holds far fewer than 81 tuples. Load and an
// Apply growing the group to the bound must succeed; growing past it
// must fail with the same verdict as single-node.
func TestGeneralFormBoundsUseGlobalSize(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R", "a", "b"))
	a := access.NewSchema(access.Constraint{
		Rel: "R", X: []schema.Attribute{"a"}, Y: []schema.Attribute{"b"},
		Card: access.SqrtCard(),
	})
	build := func() *data.Instance {
		d := data.NewInstance(s)
		for i := 0; i < 9; i++ {
			d.MustInsert("R", iv(0), iv(int64(i))) // the dense group: 9 ≤ ceil(sqrt(100))
		}
		for i := 1; i <= 91; i++ {
			d.MustInsert("R", iv(int64(i)), iv(0)) // 91 singleton groups
		}
		return d
	}
	single, err := core.New(s, a, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Load(build()); err != nil {
		t.Fatal(err)
	}
	sharded, err := New(s, a, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sharded.Load(build()); err != nil {
		t.Fatalf("global |D|=100 admits the group of 9, but sharded Load rejected: %v", err)
	}

	// Grow the group to exactly the bound: fine on both engines.
	grow := func(b int64) *live.Delta {
		d := live.NewDelta(s)
		d.MustInsert("R", iv(0), iv(100+b))
		return d
	}
	if _, err := single.Apply(context.Background(), grow(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.Apply(context.Background(), grow(1)); err != nil {
		t.Fatalf("growing to the global bound must be admitted: %v", err)
	}
	// One past the bound (|D|=102, bound ceil(sqrt(102)) = 11... grow
	// two more so the group outruns the slowly rising bound).
	var errS, errH error
	for i := int64(2); i <= 4; i++ {
		_, errS = single.Apply(context.Background(), grow(i))
		_, errH = sharded.Apply(context.Background(), grow(i))
		if (errS == nil) != (errH == nil) {
			t.Fatalf("verdicts diverge at step %d: single=%v sharded=%v", i, errS, errH)
		}
	}
	var ve *live.ViolationError
	if !errors.As(errH, &ve) {
		t.Fatalf("the group must eventually outrun sqrt(|D|) on both engines, got %v", errH)
	}
}

// TestShrinkRecheckAcrossShards deletes enough singleton tuples that the
// sqrt bound drops below an untouched group's size: the sharded engine
// must re-check untouched shards and reject exactly like single-node.
func TestShrinkRecheckAcrossShards(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R", "a", "b"))
	a := access.NewSchema(access.Constraint{
		Rel: "R", X: []schema.Attribute{"a"}, Y: []schema.Attribute{"b"},
		Card: access.SqrtCard(),
	})
	build := func() *data.Instance {
		d := data.NewInstance(s)
		for i := 0; i < 9; i++ {
			d.MustInsert("R", iv(0), iv(int64(i)))
		}
		for i := 1; i <= 91; i++ {
			d.MustInsert("R", iv(int64(i)), iv(0))
		}
		return d
	}
	single, err := core.New(s, a, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Load(build()); err != nil {
		t.Fatal(err)
	}
	sharded, err := New(s, a, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sharded.Load(build()); err != nil {
		t.Fatal(err)
	}
	// Delete 60 singletons: |D| 100 -> 40, bound 10 -> 7 < 9. The dense
	// group's tuples are untouched by the delta.
	shrink := live.NewDelta(s)
	for i := 1; i <= 60; i++ {
		shrink.MustDelete("R", iv(int64(i)), iv(0))
	}
	_, errS := single.Apply(context.Background(), shrink)
	_, errH := sharded.Apply(context.Background(), shrink)
	var vs, vh *live.ViolationError
	if !errors.As(errS, &vs) {
		t.Fatalf("single-node must reject the shrink: %v", errS)
	}
	if !errors.As(errH, &vh) {
		t.Fatalf("sharded must reject the shrink (untouched-shard recheck): %v", errH)
	}
	if fmt.Sprint(vh.Violations) != fmt.Sprint(vs.Violations) {
		t.Fatalf("violations differ:\n  sharded: %v\n  single:  %v", vh.Violations, vs.Violations)
	}
}

// TestQueryablePolymorphism drives both engines through the shared
// interface, the way internal/server does, and the sharded one through
// the concrete surface cmd/bequery uses.
func TestQueryablePolymorphism(t *testing.T) {
	single, sharded := newAccidents(t, 2, 2)
	for _, eng := range []core.Queryable{single, sharded} {
		if _, err := eng.Explain(workload.Q0(), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Query(context.Background(), workload.Q0()); err != nil {
			t.Fatal(err)
		}
	}
	if sharded.Instance() == nil {
		t.Fatal("Instance() nil after Load")
	}
	res, err := sharded.IsCovered(workload.Q0())
	if err != nil || !res.Covered {
		t.Fatalf("Q0 covered check: %v %v", res, err)
	}
	if _, err := sharded.Baseline(workload.Q0(), 0); err != nil {
		t.Fatal(err)
	}
	if got := sharded.Stats().Shards; got != 2 {
		t.Fatalf("Stats().Shards = %d, want 2", got)
	}
	if sharded.Stats().Queries == 0 {
		t.Fatal("query counter did not advance")
	}
}

// TestScanMergeObservesContext pins the shard-side cancellation
// contract: after an Apply the fresh snapshot has no cached union, so a
// scan-fallback query must materialize one tuple by tuple — and a
// canceled request must not pay for a merge nobody will read.
func TestScanMergeObservesContext(t *testing.T) {
	_, sharded := newAccidents(t, 4, 2)
	delta := live.NewDelta(sharded.Schema)
	delta.MustInsert("Accident", iv(999999), sv("Nowhere"), sv("9/9/1999"))
	if _, err := sharded.Apply(context.Background(), delta); err != nil {
		t.Fatal(err)
	}
	sn := sharded.snap.Load()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sn.instance(canceled, sharded.Schema); !errors.Is(err, context.Canceled) {
		t.Fatalf("merge under canceled ctx = %v, want context.Canceled", err)
	}
	// The refused merge must not have cached a partial union: a live
	// request afterwards still gets the full scan fallback.
	unanchored := &cq.CQ{Label: "allAccidents", Free: []string{"d"},
		Atoms: []cq.Atom{cq.NewAtom("Accident", cq.Var("a"), cq.Var("d"), cq.Var("t"))}}
	if _, err := sharded.Query(canceled, unanchored); !errors.Is(err, context.Canceled) {
		t.Fatalf("scan query under canceled ctx = %v, want context.Canceled", err)
	}
	res, err := sharded.Query(context.Background(), unanchored)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != core.ViaFullScan {
		t.Fatalf("unanchored query must fall back to scan, got %v", res.Mode)
	}
	if len(res.Rows) == 0 {
		t.Fatal("scan after merge returned no rows")
	}
}
