package core

// Cross-package invariant tests: the properties that make the whole system
// trustworthy, checked over randomized workloads rather than fixtures.
//
//  1. Soundness of plan synthesis (Theorem 3.11(2)): for every covered
//     query the bounded plan's answer equals naive evaluation, on many
//     random instances.
//  2. The static access bound dominates actual fetches everywhere.
//  3. Coverage is monotone in the access schema.
//  4. BEP rewrites preserve answers (chase + redundant-atom drops).
//  5. Envelope sandwich: Ql(D) ⊆ Q(D) ⊆ Qu(D) with errors within Nl/Nu.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/bep"
	"repro/internal/cover"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/envelope"
	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workload"
)

// randomWorkload generates queries over the accident schema with anchors.
func randomWorkload(t *testing.T, n int, seed int64) []*cq.CQ {
	t.Helper()
	consts := map[schema.Attribute][]cq.Term{
		"date":     {cq.Const(value.NewString(workload.DateName(0))), cq.Const(value.NewString(workload.DateName(1)))},
		"district": {cq.Const(value.NewString(workload.Districts[0]))},
		"aid":      {cq.Const(value.NewInt(2))},
		"vid":      {cq.Const(value.NewInt(3))},
	}
	qs, err := workload.RandomCQs(workload.AccidentSchema(), workload.RandomCQConfig{
		Queries: n, MaxAtoms: 3, StartProb: 0.9, FreeVars: 2, Seed: seed,
	}, consts)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

func TestInvariantCoveredPlansAgreeWithNaive(t *testing.T) {
	s := workload.AccidentSchema()
	a := workload.AccidentConstraints()
	qs := randomWorkload(t, 120, 21)
	instances := make([]*data.Instance, 0, 3)
	for seed := int64(0); seed < 3; seed++ {
		acc, err := workload.GenerateAccidents(workload.AccidentConfig{
			Days: 2 + int(seed), AccidentsPerDay: 4, MaxVehicles: 3, Seed: 40 + seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, acc.Instance)
	}
	coveredCount := 0
	for _, q := range qs {
		res, err := cover.Check(q, a, s, cover.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Covered {
			continue
		}
		coveredCount++
		p, err := plan.Build(res)
		if err != nil {
			t.Fatalf("%s: %v", q.Label, err)
		}
		bound, err := plan.AccessBound(p, 0)
		if err != nil {
			t.Fatalf("%s: %v", q.Label, err)
		}
		for di, d := range instances {
			ix, viols, err := access.BuildIndexed(a, d)
			if err != nil {
				t.Fatal(err)
			}
			if len(viols) != 0 {
				t.Fatalf("instance %d violates A: %v", di, viols)
			}
			got, stats, err := plan.Execute(p, ix)
			if err != nil {
				t.Fatalf("%s on instance %d: %v", q.Label, di, err)
			}
			want, err := eval.CQ(q, d, eval.ScanJoin)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRowSet(got.Rows, want.Rows) {
				t.Fatalf("%s on instance %d: plan %v != naive %v\nquery: %s\nplan:\n%s",
					q.Label, di, got.Rows, want.Rows, q, p)
			}
			// Invariant 2: the static bound dominates actual fetches.
			if stats.Fetched > bound.Fetched {
				t.Errorf("%s: fetched %d exceeds static bound %d", q.Label, stats.Fetched, bound.Fetched)
			}
		}
	}
	if coveredCount < 10 {
		t.Fatalf("workload too degenerate: only %d covered queries", coveredCount)
	}
	t.Logf("verified %d covered queries across %d instances", coveredCount, len(instances))
}

func sameRowSet(a, b []data.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	keys := make(map[value.Key]bool, len(a))
	for _, t := range a {
		keys[t.Key()] = true
	}
	for _, t := range b {
		if !keys[t.Key()] {
			return false
		}
	}
	return true
}

func TestInvariantCoverageMonotoneInA(t *testing.T) {
	s := workload.AccidentSchema()
	full := workload.AccidentConstraints()
	qs := randomWorkload(t, 60, 22)
	for take := 1; take < len(full.Constraints); take++ {
		smaller := access.NewSchema(full.Constraints[:take]...)
		for _, q := range qs {
			r1, err := cover.Analyze(q, smaller, s, cover.Options{})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := cover.Analyze(q, full, s, cover.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for v := range r1.Covered {
				if !r2.Covered[v] {
					t.Fatalf("%s: cov shrank when adding constraints (%s lost)", q.Label, v)
				}
			}
		}
	}
}

func TestInvariantBEPWitnessPreservesAnswers(t *testing.T) {
	s := workload.AccidentSchema()
	a := workload.AccidentConstraints()
	qs := randomWorkload(t, 80, 23)
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: 3, AccidentsPerDay: 5, MaxVehicles: 3, Seed: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := acc.Instance
	for _, q := range qs {
		dec, err := bep.Decide(q, a, s, bep.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Verdict != bep.Bounded || dec.Witness == nil {
			continue
		}
		// The witness must be A-equivalent: same answers on D |= A.
		wantRes, err := eval.CQ(q, d, eval.ScanJoin)
		if err != nil {
			t.Fatal(err)
		}
		gotRes, err := eval.CQ(dec.Witness, d, eval.ScanJoin)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRowSet(gotRes.Rows, wantRes.Rows) {
			t.Fatalf("%s: witness changed answers\noriginal: %s -> %v\nwitness: %s -> %v",
				q.Label, q, wantRes.Rows, dec.Witness, gotRes.Rows)
		}
	}
}

func TestInvariantEnvelopeSandwichRandomized(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R", "A", "B"))
	a := access.NewSchema(access.NewConstraint("R", []schema.Attribute{"A"}, []schema.Attribute{"B"}, 3))
	q := &cq.CQ{
		Label: "Q41", Free: []string{"x"},
		Atoms: []cq.Atom{
			cq.NewAtom("R", cq.Var("w"), cq.Var("x")),
			cq.NewAtom("R", cq.Var("y"), cq.Var("w")),
			cq.NewAtom("R", cq.Var("x"), cq.Var("z")),
		},
		Eqs: []cq.Eq{{L: cq.Var("w"), R: cq.Const(value.NewInt(1))}},
	}
	up, err := envelope.FindUpper(q, a, s, envelope.Options{})
	if err != nil || !up.Found {
		t.Fatal(err, up)
	}
	lo, err := envelope.FindLower(q, a, s, 1, envelope.Options{})
	if err != nil || !lo.Found {
		t.Fatal(err, lo)
	}
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		d := data.NewInstance(s)
		used := map[int64]int{}
		for i := 0; i < 60; i++ {
			av := int64(rng.Intn(12))
			if used[av] >= 3 {
				continue
			}
			used[av]++
			d.MustInsert("R", value.NewInt(av), value.NewInt(int64(rng.Intn(12))))
		}
		exact, err := eval.CQ(q, d, eval.ScanJoin)
		if err != nil {
			t.Fatal(err)
		}
		upper, err := eval.CQ(up.Qu, d, eval.ScanJoin)
		if err != nil {
			t.Fatal(err)
		}
		lower, err := eval.CQ(lo.Ql, d, eval.ScanJoin)
		if err != nil {
			t.Fatal(err)
		}
		if !subset(lower.Rows, exact.Rows) || !subset(exact.Rows, upper.Rows) {
			t.Fatalf("trial %d: sandwich violated\nQl=%v\nQ=%v\nQu=%v", trial,
				lower.Rows, exact.Rows, upper.Rows)
		}
		if over := len(upper.Rows) - len(exact.Rows); int64(over) > up.Nu {
			t.Errorf("trial %d: |Qu−Q| = %d exceeds Nu = %d", trial, over, up.Nu)
		}
		if under := len(exact.Rows) - len(lower.Rows); int64(under) > lo.Nl {
			t.Errorf("trial %d: |Q−Ql| = %d exceeds Nl = %d", trial, under, lo.Nl)
		}
	}
}

func subset(sub, sup []data.Tuple) bool {
	have := make(map[value.Key]bool, len(sup))
	for _, t := range sup {
		have[t.Key()] = true
	}
	for _, t := range sub {
		if !have[t.Key()] {
			return false
		}
	}
	return true
}

// TestInvariantSpecializedQueriesStayBounded: every parameter set QSP
// returns really does make every concrete instantiation covered.
func TestInvariantSpecializedQueriesStayBounded(t *testing.T) {
	s := workload.AccidentSchema()
	a := workload.AccidentConstraints()
	q, params := workload.Q51()
	eng, err := New(s, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Specialize(q, params, 2)
	if err != nil || !res.Found {
		t.Fatal(err, res)
	}
	// Try a batch of concrete valuations; all must be covered.
	for i := 0; i < 10; i++ {
		vals := map[string]value.Value{}
		for _, p := range res.Params {
			vals[p] = value.NewString(fmt.Sprintf("val-%d-%s", i, p))
		}
		spec := q.Clone()
		for p, v := range vals {
			spec.Eqs = append(spec.Eqs, cq.Eq{L: cq.Var(p), R: cq.Const(v)})
		}
		cres, err := eng.IsCovered(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !cres.Covered {
			t.Fatalf("valuation %d of %v is not covered:\n%s", i, res.Params, cres.Explain())
		}
	}
}
