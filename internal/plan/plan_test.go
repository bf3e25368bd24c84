package plan

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/cover"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workload"
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

// accidentInstance builds a deterministic instance satisfying psi1-psi4.
func accidentInstance(t *testing.T, nDates, perDate, perAccident int) *data.Instance {
	t.Helper()
	d := data.NewInstance(accidentSchema())
	rng := rand.New(rand.NewSource(7))
	districts := []string{"Queen's Park", "Soho", "Camden", "Leith"}
	aid, cid, vid := int64(0), int64(0), int64(0)
	for dt := 0; dt < nDates; dt++ {
		date := sv(dateName(dt))
		for a := 0; a < perDate; a++ {
			aid++
			district := sv(districts[rng.Intn(len(districts))])
			d.MustInsert("Accident", iv(aid), district, date)
			for c := 0; c < perAccident; c++ {
				cid++
				vid++
				d.MustInsert("Casualty", iv(cid), iv(aid), iv(int64(c%3)), iv(vid))
				d.MustInsert("Vehicle", iv(vid), sv("driver"), iv(int64(17+rng.Intn(70))))
			}
		}
	}
	return d
}

func dateName(i int) string {
	if i == 0 {
		return "1/5/2005"
	}
	return "day-" + string(rune('A'+i))
}

func buildQ0Plan(t *testing.T) *Plan {
	t.Helper()
	res, err := cover.Check(q0(), psi(), accidentSchema(), cover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Fatalf("Q0 must be covered:\n%s", res.Explain())
	}
	p, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestQ0PlanMatchesNaiveEvaluation(t *testing.T) {
	d := accidentInstance(t, 3, 5, 2)
	ix, viols, err := access.BuildIndexed(psi(), d)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Fatalf("instance must satisfy psi: %v", viols)
	}
	p := buildQ0Plan(t)
	got, stats, err := Execute(p, ix)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eval.CQ(q0(), d, eval.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSet(t, got, want.Rows)
	if stats.Fetched == 0 {
		t.Error("plan should have fetched something")
	}
	// Bounded evaluation touches far less data than full scans.
	if stats.Fetched >= want.Scanned {
		t.Errorf("bounded plan fetched %d ≥ baseline scanned %d", stats.Fetched, want.Scanned)
	}
}

func TestQ0AccessBoundMatchesPaperArithmetic(t *testing.T) {
	p := buildQ0Plan(t)
	b, err := AccessBound(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The paper derives 610 + 610·192·2 = 234850 for its hand plan; ours
	// adds one 610·1 term for the Accident(aid -> district date, 1) check
	// that carries the district.
	if want := int64(610 + 610*1 + 2*610*192); b.Fetched != want {
		t.Errorf("Q0 static fetch bound = %d, want 610 + 610·1 + 2·610·192 = %d", b.Fetched, want)
	}
	// The headline property: the bound must not change with |D|
	// (all psi constraints are constant-form).
	b2, err := AccessBound(p, 1_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Fetched != b.Fetched {
		t.Errorf("bound must be independent of |D|: %d vs %d", b.Fetched, b2.Fetched)
	}
}

// TestPlanFetchCounts pins the plans' shapes: phase 2 re-fetches no atom
// phase 1 already fetched through the same constraint, and a fetch keeps
// no column nothing reads, so Q0 fetches dates → aids → the district
// check → casualties → vehicles and nothing twice. Its 6 steps are the
// seed row, four fetches each extending the accumulated table, and the
// head projection.
func TestPlanFetchCounts(t *testing.T) {
	soc := workload.SocialConstraints(15, 5)
	var path2 *cq.CQ
	for _, q := range workload.PatternQueries(1) {
		if q.Label == "path2" {
			path2 = q
		}
	}
	for _, tc := range []struct {
		q              *cq.CQ
		a              *access.Schema
		s              *schema.Schema
		steps, fetches int
	}{
		{q0(), psi(), accidentSchema(), 6, 4},
		{workload.GraphSearchQuery(1, "NYC", "cycling"), soc, workload.SocialSchema(), 0, 3},
		{path2, soc, workload.SocialSchema(), 0, 2},
	} {
		res, err := cover.Check(tc.q, tc.a, tc.s, cover.Options{})
		if err != nil || !res.Covered {
			t.Fatalf("%s must be covered: %v", tc.q.Label, err)
		}
		p, err := Build(res)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, op := range p.Steps {
			if _, ok := op.(FetchOp); ok {
				n++
			}
		}
		if n != tc.fetches || (tc.steps > 0 && len(p.Steps) != tc.steps) {
			t.Errorf("%s: %d steps with %d fetches, want %d fetches (and %d steps when pinned)\n%s",
				tc.q.Label, len(p.Steps), n, tc.fetches, tc.steps, p)
		}
	}
}

func TestBoundedAccessFlatAsDataGrows(t *testing.T) {
	p := buildQ0Plan(t)
	var prev int64 = -1
	for _, scale := range []int{2, 8, 24} {
		d := accidentInstance(t, scale, 4, 2)
		ix, _, err := access.BuildIndexed(psi(), d)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := Execute(p, ix)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && stats.Fetched != prev {
			t.Errorf("fetched tuples changed with |D|: %d vs %d (only day 1/5/2005 is queried)",
				stats.Fetched, prev)
		}
		prev = stats.Fetched
	}
}

// Example 3.1(3): the covered Q3 plan agrees with naive evaluation on
// instances satisfying A3.
func TestQ3PlanAgainstNaive(t *testing.T) {
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
	res, err := cover.Check(q3, a3, s, cover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	// All C-values must be the single constant 5 (R3(∅ -> C, 1)).
	for _, rows := range [][][3]int64{
		{{1, 1, 5}, {5, 5, 5}, {2, 3, 5}}, // answer (5,5) present
		{{1, 1, 5}, {2, 3, 5}},            // no (x,x,x) tuple: empty
		{{7, 7, 5}},                       // no (1,1,_) tuple: empty
	} {
		d := data.NewInstance(s)
		for _, r := range rows {
			d.MustInsert("R3", iv(r[0]), iv(r[1]), iv(r[2]))
		}
		ix, viols, err := access.BuildIndexed(a3, d)
		if err != nil {
			t.Fatal(err)
		}
		if len(viols) != 0 {
			t.Fatalf("fixture violates A3: %v", viols)
		}
		got, _, err := Execute(p, ix)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eval.CQ(q3, d, eval.ScanJoin)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSet(t, got, want.Rows)
	}
}

func TestUnsatisfiableQueryGetsEmptyPlan(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R2", "A", "B"))
	a2 := access.NewSchema(access.NewConstraint("R2", attrs("A"), attrs("B"), 1))
	// Q2'(x) = (x=1 ∧ x=2): covered and unsatisfiable (Example 3.12).
	q := &cq.CQ{
		Label: "Q2p",
		Free:  []string{"x"},
		Eqs: []cq.Eq{
			{L: cq.Var("x"), R: cq.Const(iv(1))},
			{L: cq.Var("x"), R: cq.Const(iv(2))},
		},
	}
	res, err := cover.Check(q, a2, s, cover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	d := data.NewInstance(s)
	d.MustInsert("R2", iv(1), iv(2))
	ix, _, err := access.BuildIndexed(a2, d)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := Execute(p, ix)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("empty plan must return no rows: %v", got.Rows)
	}
	if stats.Fetched != 0 {
		t.Errorf("empty plan must fetch nothing: %d", stats.Fetched)
	}
}

func TestDataIndependentQueryPlan(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R", "A"))
	a := access.NewSchema(access.NewConstraint("R", attrs("A"), attrs("A"), 1))
	// Q(x) :- x = 7: pure data-independent query.
	q := &cq.CQ{Label: "QDI", Free: []string{"x"},
		Eqs: []cq.Eq{{L: cq.Var("x"), R: cq.Const(iv(7))}}}
	res, err := cover.Check(q, a, s, cover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Fatalf("data-independent query must be covered:\n%s", res.Explain())
	}
	p, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	d := data.NewInstance(s)
	ix, _, err := access.BuildIndexed(a, d)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Execute(p, ix)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Rows[0][0] != iv(7) {
		t.Errorf("Q(x):-x=7 should answer {7}: %v", got.Rows)
	}
}

func TestNotCoveredQueryRejected(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R", "A", "B"))
	a := access.NewSchema() // nothing covered
	q := &cq.CQ{Free: []string{"x"}, Atoms: []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("y"))}}
	res, err := cover.Check(q, a, s, cover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Build(res)
	if err == nil {
		t.Fatal("non-covered query must be rejected")
	}
	var nc *NotCoveredError
	if !strings.Contains(err.Error(), "not covered") {
		t.Errorf("error should explain non-coverage: %v", err)
	}
	_ = nc
}

func TestRepeatedHeadVariable(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R", "A", "B"))
	a := access.NewSchema(access.NewConstraint("R", attrs("A"), attrs("B"), 3))
	// Q(x, x) :- R(c, x), c = 1.
	q := &cq.CQ{Label: "QXX", Free: []string{"x", "x"},
		Atoms: []cq.Atom{cq.NewAtom("R", cq.Var("c"), cq.Var("x"))},
		Eqs:   []cq.Eq{{L: cq.Var("c"), R: cq.Const(iv(1))}}}
	res, err := cover.Check(q, a, s, cover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Fatalf("QXX must be covered:\n%s", res.Explain())
	}
	p, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	d := data.NewInstance(s)
	d.MustInsert("R", iv(1), iv(10))
	d.MustInsert("R", iv(1), iv(20))
	d.MustInsert("R", iv(2), iv(30))
	ix, _, err := access.BuildIndexed(a, d)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Execute(p, ix)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eval.CQ(q, d, eval.ScanJoin)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSet(t, got, want.Rows)
	if got.Len() != 2 || len(got.Rows[0]) != 2 {
		t.Errorf("Q(x,x) rows = %v", got.Rows)
	}
}

func TestPlanStringRendersXiList(t *testing.T) {
	p := buildQ0Plan(t)
	out := p.String()
	for _, want := range []string{"plan Q0", "T0 =", "fetch(", "answer:"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan rendering missing %q:\n%s", want, out)
		}
	}
	if p.FetchCount() == 0 {
		t.Error("Q0 plan must contain fetches")
	}
	if !p.BoundedlyEvaluable(1000) {
		t.Error("Q0 plan should be boundedly evaluable within 1000 steps")
	}
}

// Randomized agreement: random instances satisfying psi, plan result equals
// naive evaluation. This is the core soundness property of Theorem 3.11(2).
func TestPlanAgreesWithNaiveRandomized(t *testing.T) {
	p := buildQ0Plan(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		d := data.NewInstance(accidentSchema())
		nAcc := 1 + rng.Intn(8)
		for a := 0; a < nAcc; a++ {
			aid := int64(a + 1)
			dist := []string{"Queen's Park", "Soho"}[rng.Intn(2)]
			date := []string{"1/5/2005", "2/5/2005"}[rng.Intn(2)]
			d.MustInsert("Accident", iv(aid), sv(dist), sv(date))
			for c := 0; c < rng.Intn(3); c++ {
				cid := int64(100*a + c)
				vid := int64(1000*a + c)
				d.MustInsert("Casualty", iv(cid), iv(aid), iv(0), iv(vid))
				d.MustInsert("Vehicle", iv(vid), sv("drv"), iv(int64(20+rng.Intn(5))))
			}
		}
		ix, viols, err := access.BuildIndexed(psi(), d)
		if err != nil {
			t.Fatal(err)
		}
		if len(viols) != 0 {
			t.Fatalf("random instance violated psi: %v", viols)
		}
		got, _, err := Execute(p, ix)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eval.CQ(q0(), d, eval.ScanJoin)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSet(t, got, want.Rows)
	}
}

func TestUCQPlan(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("Rp", "A", "B", "C"))
	ap := access.NewSchema(access.NewConstraint("Rp", attrs("A"), attrs("B"), 4))
	q1 := &cq.CQ{Label: "Q1", Free: []string{"y"},
		Atoms: []cq.Atom{cq.NewAtom("Rp", cq.Var("x"), cq.Var("y"), cq.Var("z"))},
		Eqs:   []cq.Eq{{L: cq.Var("x"), R: cq.Const(iv(1))}}}
	q2 := &cq.CQ{Label: "Q2", Free: []string{"y"},
		Atoms: []cq.Atom{cq.NewAtom("Rp", cq.Var("x"), cq.Var("y"), cq.Var("z"))},
		Eqs: []cq.Eq{
			{L: cq.Var("x"), R: cq.Const(iv(1))},
			{L: cq.Var("z"), R: cq.Var("y")},
		}}
	ures, err := cover.CheckUCQ([]*cq.CQ{q1, q2}, ap, s, cover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ures.Covered {
		t.Fatal("Q1 ∪ Q2 must be covered (Example 3.5)")
	}
	p, err := BuildUCQ(ures)
	if err != nil {
		t.Fatal(err)
	}
	d := data.NewInstance(s)
	d.MustInsert("Rp", iv(1), iv(10), iv(10))
	d.MustInsert("Rp", iv(1), iv(20), iv(99))
	d.MustInsert("Rp", iv(2), iv(30), iv(30))
	ix, viols, err := access.BuildIndexed(ap, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Fatalf("violations: %v", viols)
	}
	got, _, err := Execute(p, ix)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eval.UCQ([]*cq.CQ{q1, q2}, d, eval.ScanJoin)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSet(t, got, want.Rows)
}

// TestUCQBoundKeepsSubPlansApart: the sub-plans of a UCQ reuse column
// names for unrelated classes. Here the first sub-query's x is a name
// (one value per person) and the second's is a friend id (up to three),
// so the bound must not carry the first's narrowing into the second.
func TestUCQBoundKeepsSubPlansApart(t *testing.T) {
	s := workload.SocialSchema()
	a := workload.SocialConstraints(3, 1)
	q1 := &cq.CQ{Label: "A", Free: []string{"x", "y"},
		Atoms: []cq.Atom{cq.NewAtom("Person", cq.Const(iv(1)), cq.Var("x"), cq.Var("y"))}}
	q2 := &cq.CQ{Label: "A", Free: []string{"x", "y"},
		Atoms: []cq.Atom{
			cq.NewAtom("Friend", cq.Const(iv(1)), cq.Var("x")),
			cq.NewAtom("Friend", cq.Var("x"), cq.Var("y")),
		}}
	ures, err := cover.CheckUCQ([]*cq.CQ{q1, q2}, a, s, cover.Options{})
	if err != nil || !ures.Covered {
		t.Fatalf("A must be covered: %v", err)
	}
	p, err := BuildUCQ(ures)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AccessBound(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Person by pid (1), friends of 1 (3), friends of those (3·3).
	if want := int64(1 + 3 + 3*3); b.Fetched != want {
		t.Errorf("UCQ fetch bound = %d, want 1 + 3 + 3·3 = %d\n%s", b.Fetched, want, p)
	}
	d := data.NewInstance(s)
	d.MustInsert("Person", iv(1), sv("user1"), sv("NYC"))
	for f := int64(2); f <= 4; f++ {
		d.MustInsert("Friend", iv(1), iv(f))
		for g := int64(0); g < 3; g++ {
			d.MustInsert("Friend", iv(f), iv(10*f+g))
		}
	}
	ix, viols, err := access.BuildIndexed(a, d)
	if err != nil || len(viols) > 0 {
		t.Fatalf("BuildIndexed: %v %v", viols, err)
	}
	_, stats, err := Execute(p, ix)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fetched > b.Fetched {
		t.Errorf("fetched %d exceeds the static bound %d", stats.Fetched, b.Fetched)
	}
}

func TestAccessBoundSaturates(t *testing.T) {
	// A chain of fetches with huge bounds must saturate, not overflow.
	c := access.NewConstraint("R", attrs("A"), attrs("B"), 1<<40)
	p := &Plan{Label: "big", Steps: []Op{unit}}
	for i := 0; i < 4; i++ {
		p.Steps = append(p.Steps, FetchOp{Input: i, Constraint: c, XCols: nil, YOut: []string{"y"}})
	}
	// FetchOp with empty XCols fetches the single empty-key bucket.
	b, err := AccessBound(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Fetched <= 0 {
		t.Errorf("saturating bound must stay positive: %d", b.Fetched)
	}
}

func TestValidateRejectsForwardReference(t *testing.T) {
	p := &Plan{Steps: []Op{ProjectOp{Input: 1, Cols: nil}, unit}}
	if err := p.Validate(); err == nil {
		t.Error("forward reference must be rejected")
	}
	empty := &Plan{}
	if err := empty.Validate(); err == nil {
		t.Error("empty plan must be rejected")
	}
}

func assertSameSet(t *testing.T, got *Table, want []data.Tuple) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("row count mismatch: plan=%d naive=%d\nplan rows: %v\nnaive rows: %v",
			got.Len(), len(want), got.Rows, want)
	}
	wantKeys := make(map[value.Key]bool, len(want))
	for _, w := range want {
		wantKeys[w.Key()] = true
	}
	for _, g := range got.Rows {
		if !wantKeys[g.Key()] {
			t.Fatalf("plan produced unexpected row %v", g)
		}
	}
}
