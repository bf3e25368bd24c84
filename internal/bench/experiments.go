package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/access"
	"repro/internal/ainstance"
	"repro/internal/bep"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/envelope"
	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/specialize"
	"repro/internal/value"
	"repro/internal/workload"
)

func iv(i int64) value.Value                          { return value.NewInt(i) }
func attrs(as ...schema.Attribute) []schema.Attribute { return as }

// E1ScaleSweep reproduces Example 1.1's headline: Q0 answered by fetching
// a bounded number of tuples regardless of |D|, versus a full-scan
// baseline whose cost grows linearly. days scales the dataset.
func E1ScaleSweep(days []int) (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "Example 1.1 — bounded plan vs full scan as |D| grows",
		Header: []string{"|D| (tuples)", "fetched (bounded)", "scanned (baseline)", "ratio", "static bound"},
	}
	for _, d := range days {
		acc, err := workload.GenerateAccidents(workload.AccidentConfig{
			Days: d, AccidentsPerDay: 40, MaxVehicles: 6, Seed: 1,
		})
		if err != nil {
			return nil, err
		}
		eng, err := core.New(acc.Schema, acc.Access, core.Options{})
		if err != nil {
			return nil, err
		}
		if err := eng.Load(acc.Instance); err != nil {
			return nil, err
		}
		q := workload.Q0()
		res, err := eng.Query(context.Background(), q, core.WithFallback(core.FallbackRefuse))
		if err != nil {
			return nil, err
		}
		base, err := eng.Baseline(q, eval.HashJoin)
		if err != nil {
			return nil, err
		}
		ratio := float64(base.Scanned) / float64(maxI64(res.Stats.Fetched, 1))
		t.AddRow(acc.Instance.Size(), res.Stats.Fetched, base.Scanned, ratio, res.Bound.Fetched)
	}
	t.Notes = append(t.Notes,
		"paper hand-derives ≤ 610 + 610·192·2 = 234850 fetched for Q0; our plan re-verifies atoms, giving the same order",
		"the 'fetched' column must stay flat as |D| grows — that is bounded evaluability")
	return t, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// E2CQPScaling measures the PTIME covered-query check (Theorem 3.11(3)):
// wall-clock per check as the query's atom count grows.
func E2CQPScaling(sizes []int) (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "CQP(CQ) is PTIME — coverage check time vs query size",
		Header: []string{"atoms", "check time (µs)", "covered"},
	}
	s := workload.AccidentSchema()
	a := workload.AccidentConstraints()
	for _, n := range sizes {
		q := chainQuery(n)
		const reps = 50
		start := time.Now()
		var res *cover.Result
		var err error
		for r := 0; r < reps; r++ {
			res, err = cover.Check(q, a, s, cover.Options{})
			if err != nil {
				return nil, err
			}
		}
		el := time.Since(start)
		t.AddRow(n, float64(el.Microseconds())/reps, res.Covered)
	}
	t.Notes = append(t.Notes, "time grows polynomially (near-linearly) in the atom count")
	return t, nil
}

// chainQuery builds a Casualty-joined chain of n atoms anchored on a date.
func chainQuery(n int) *cq.CQ {
	q := &cq.CQ{Label: fmt.Sprintf("chain%d", n), Free: []string{"a0"}}
	q.Atoms = append(q.Atoms, cq.NewAtom("Accident", cq.Var("a0"), cq.Var("d0"), cq.Var("t0")))
	q.Eqs = append(q.Eqs, cq.Eq{L: cq.Var("t0"), R: cq.Const(value.NewString("1/5/2005"))})
	for i := 1; i < n; i++ {
		q.Atoms = append(q.Atoms, cq.NewAtom("Casualty",
			cq.Var(fmt.Sprintf("c%d", i)), cq.Var("a0"),
			cq.Var(fmt.Sprintf("k%d", i)), cq.Var(fmt.Sprintf("v%d", i))))
	}
	return q
}

// E3UCQCoverage contrasts Theorem 3.14's two regimes: per-sub coverage is
// PTIME, but the dominance check enumerates A-instances (Πᵖ₂ behaviour),
// with cost exploding in the uncovered sub-query's variable count.
func E3UCQCoverage(varCounts []int) (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "CQP(UCQ) — dominance check cost vs tableau variables",
		Header: []string{"vars in uncovered sub", "UCQ check time (µs)", "covered"},
	}
	s := schema.MustNew(schema.MustRelation("Rp", "A", "B", "C"))
	ap := access.NewSchema(access.NewConstraint("Rp", attrs("A"), attrs("B"), 4))
	for _, n := range varCounts {
		q1 := &cq.CQ{Label: "Q1", Free: []string{"y"},
			Atoms: []cq.Atom{cq.NewAtom("Rp", cq.Var("x"), cq.Var("y"), cq.Var("z"))},
			Eqs:   []cq.Eq{{L: cq.Var("x"), R: cq.Const(iv(1))}}}
		// Uncovered sub with a growing tail of fresh variables.
		q2 := &cq.CQ{Label: "Q2", Free: []string{"y"},
			Atoms: []cq.Atom{cq.NewAtom("Rp", cq.Var("x"), cq.Var("y"), cq.Var("z"))},
			Eqs: []cq.Eq{
				{L: cq.Var("x"), R: cq.Const(iv(1))},
				{L: cq.Var("z"), R: cq.Var("y")},
			}}
		for i := 3; i < n; i++ {
			q2.Atoms = append(q2.Atoms, cq.NewAtom("Rp",
				cq.Var("x"), cq.Var(fmt.Sprintf("w%d", i)), cq.Var(fmt.Sprintf("u%d", i))))
		}
		start := time.Now()
		res, err := cover.CheckUCQ([]*cq.CQ{q1, q2}, ap, s, cover.Options{
			AInstance: ainstance.Options{MaxVars: 12},
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(n, float64(time.Since(start).Microseconds()), res.Covered)
	}
	t.Notes = append(t.Notes, "exponential growth in the variable count is Theorem 3.14's Πᵖ₂-hardness showing up empirically")
	return t, nil
}

// E4CoverageRate reproduces the Introduction's workload measurement: the
// fraction of (mostly anchored) random CQs that are boundedly evaluable
// under constraints discovered from the data. The paper reports 77% under
// 84 constraints on the UK accident data.
func E4CoverageRate(nQueries int, discoverMaxBound int) (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "coverage rate of a random CQ workload (paper: 77% under 84 constraints)",
		Header: []string{"constraint set", "#constraints", "covered", "bounded (BEP)", "rate"},
	}
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: 20, AccidentsPerDay: 30, MaxVehicles: 5, Seed: 2,
	})
	if err != nil {
		return nil, err
	}
	consts := map[schema.Attribute][]cq.Term{
		"date":     {cq.Const(value.NewString(workload.DateName(0))), cq.Const(value.NewString(workload.DateName(1)))},
		"district": {cq.Const(value.NewString(workload.Districts[0])), cq.Const(value.NewString(workload.Districts[1]))},
		"aid":      {cq.Const(iv(3))},
		"vid":      {cq.Const(iv(5))},
		"cid":      {cq.Const(iv(7))},
	}
	qs, err := workload.RandomCQs(acc.Schema, workload.RandomCQConfig{
		Queries: nQueries, MaxAtoms: 4, StartProb: 0.85, FreeVars: 2, Seed: 3,
	}, consts)
	if err != nil {
		return nil, err
	}
	sets := []struct {
		name string
		a    *access.Schema
	}{
		{"ψ1–ψ4 (Example 1.1)", workload.AccidentConstraints()},
		{"discovered", access.Discover(acc.Schema, acc.Instance, 1, discoverMaxBound)},
	}
	for _, set := range sets {
		covered, bounded := 0, 0
		for _, q := range qs {
			res, err := cover.Check(q, set.a, acc.Schema, cover.Options{})
			if err != nil {
				return nil, err
			}
			if res.Covered {
				covered++
			}
			dec, err := bep.Decide(q, set.a, acc.Schema, bep.Options{})
			if err != nil {
				return nil, err
			}
			if dec.Verdict != bep.Unknown {
				bounded++
			}
		}
		rate := float64(bounded) / float64(len(qs)) * 100
		t.AddRow(set.name, len(set.a.Constraints), covered, bounded, fmt.Sprintf("%.0f%%", rate))
	}
	t.Notes = append(t.Notes, "shape target: a large majority of the anchored workload is bounded under discovered constraints")
	return t, nil
}

// E5Speedup reproduces the "9 seconds vs 14 hours" shape: wall-clock of
// the bounded plan against scan-join and hash-join baselines across |D|.
func E5Speedup(days []int) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "runtime: bounded plan vs conventional evaluation (paper: 9s vs >14h)",
		Header: []string{"|D|", "bounded (µs)", "hash-join (µs)", "scan-join (µs)", "speedup vs scan"},
	}
	for _, d := range days {
		acc, err := workload.GenerateAccidents(workload.AccidentConfig{
			Days: d, AccidentsPerDay: 40, MaxVehicles: 5, Seed: 4,
		})
		if err != nil {
			return nil, err
		}
		eng, err := core.New(acc.Schema, acc.Access, core.Options{})
		if err != nil {
			return nil, err
		}
		if err := eng.Load(acc.Instance); err != nil {
			return nil, err
		}
		q := workload.Q0()
		p, _, err := eng.Plan(q)
		if err != nil {
			return nil, err
		}
		ix, _, err := access.BuildIndexed(acc.Access, acc.Instance)
		if err != nil {
			return nil, err
		}
		tb := timeIt(func() error { _, _, err := plan.Execute(p, ix); return err })
		th := timeIt(func() error { _, err := eval.CQ(q, acc.Instance, eval.HashJoin); return err })
		ts := timeIt(func() error { _, err := eval.CQ(q, acc.Instance, eval.ScanJoin); return err })
		t.AddRow(acc.Instance.Size(), tb, th, ts, fmt.Sprintf("%.0fx", ts/maxF(tb, 0.1)))
	}
	t.Notes = append(t.Notes, "bounded runtime is flat; baselines grow with |D| — the crossover is immediate beyond toy sizes")
	return t, nil
}

func timeIt(f func() error) float64 {
	start := time.Now()
	if err := f(); err != nil {
		return -1
	}
	return float64(time.Since(start).Microseconds())
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// E6GraphPatterns reproduces the graph-pattern claims: the fraction of
// pattern queries that are boundedly evaluable under degree constraints
// (paper: 60%) and the access gap on those that are.
func E6GraphPatterns(people int) (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "graph pattern queries under degree-bounded access constraints (paper: 60% bounded, 4 orders faster)",
		Header: []string{"pattern", "covered", "fetched", "scanned (baseline)", "ratio"},
	}
	soc, err := workload.GenerateSocial(workload.SocialConfig{People: people, MaxFriends: 30, MaxLikes: 8, Seed: 5})
	if err != nil {
		return nil, err
	}
	eng, err := core.New(soc.Schema, soc.Access, core.Options{})
	if err != nil {
		return nil, err
	}
	if err := eng.Load(soc.Instance); err != nil {
		return nil, err
	}
	covered := 0
	qs := workload.PatternQueries(1)
	for _, q := range qs {
		res, err := eng.IsCovered(q)
		if err != nil {
			return nil, err
		}
		if !res.Covered {
			t.AddRow(q.Label, false, "-", "-", "-")
			continue
		}
		covered++
		qr, err := eng.Query(context.Background(), q, core.WithFallback(core.FallbackRefuse))
		if err != nil {
			return nil, err
		}
		base, err := eng.Baseline(q, eval.HashJoin)
		if err != nil {
			return nil, err
		}
		ratio := float64(base.Scanned) / float64(maxI64(qr.Stats.Fetched, 1))
		t.AddRow(q.Label, true, qr.Stats.Fetched, base.Scanned, fmt.Sprintf("%.0fx", ratio))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d/%d patterns covered (anchored personalized patterns are; whole-graph scans are not)", covered, len(qs)))
	return t, nil
}

// E7Envelopes reproduces Section 4's worked examples and validates the
// approximation bounds empirically: Example 4.1's Qu/Ql with measured
// |Qu(D)−Q(D)| and |Q(D)−Ql(D)| against Nu/Nl, Q2's non-existence, and
// Example 4.5's split rewrite.
func E7Envelopes() (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "envelopes (Examples 4.1, 4.5) — existence and measured error vs derived bound",
		Header: []string{"case", "exists", "measured error", "derived bound", "within"},
	}
	s := schema.MustNew(schema.MustRelation("R", "A", "B"))
	a := access.NewSchema(access.NewConstraint("R", attrs("A"), attrs("B"), 3))
	q1 := &cq.CQ{
		Label: "Q41_1", Free: []string{"x"},
		Atoms: []cq.Atom{
			cq.NewAtom("R", cq.Var("w"), cq.Var("x")),
			cq.NewAtom("R", cq.Var("y"), cq.Var("w")),
			cq.NewAtom("R", cq.Var("x"), cq.Var("z")),
		},
		Eqs: []cq.Eq{{L: cq.Var("w"), R: cq.Const(iv(1))}},
	}
	// An instance satisfying R(A -> B, 3).
	d := data.NewInstance(s)
	for _, e := range [][2]int64{{1, 2}, {1, 3}, {2, 4}, {3, 1}, {4, 1}, {2, 1}, {3, 5}, {5, 6}} {
		d.MustInsert("R", iv(e[0]), iv(e[1]))
	}
	exact, err := eval.CQ(q1, d, eval.ScanJoin)
	if err != nil {
		return nil, err
	}
	up, err := envelope.FindUpper(q1, a, s, envelope.Options{})
	if err != nil {
		return nil, err
	}
	if up.Found {
		upRes, err := eval.CQ(up.Qu, d, eval.ScanJoin)
		if err != nil {
			return nil, err
		}
		errU := setMinus(upRes.Rows, exact.Rows)
		t.AddRow("Q1 upper (Ex 4.1)", true, errU, up.Nu, errU <= int(up.Nu))
	} else {
		t.AddRow("Q1 upper (Ex 4.1)", false, "-", "-", "-")
	}
	lo, err := envelope.FindLower(q1, a, s, 1, envelope.Options{})
	if err != nil {
		return nil, err
	}
	if lo.Found {
		loRes, err := eval.CQ(lo.Ql, d, eval.ScanJoin)
		if err != nil {
			return nil, err
		}
		errL := setMinus(exact.Rows, loRes.Rows)
		t.AddRow("Q1 lower (Ex 4.1)", true, errL, lo.Nl, errL <= int(lo.Nl))
	} else {
		t.AddRow("Q1 lower (Ex 4.1)", false, "-", "-", "-")
	}
	// Q2: no envelopes.
	q2 := &cq.CQ{
		Label: "Q41_2", Free: []string{"x", "y"},
		Atoms: []cq.Atom{
			cq.NewAtom("R", cq.Var("w"), cq.Var("x")),
			cq.NewAtom("R", cq.Var("y"), cq.Var("w")),
		},
		Eqs: []cq.Eq{{L: cq.Var("w"), R: cq.Const(iv(1))}},
	}
	up2, err := envelope.FindUpper(q2, a, s, envelope.Options{})
	if err != nil {
		return nil, err
	}
	lo2, err := envelope.FindLower(q2, a, s, 2, envelope.Options{})
	if err != nil {
		return nil, err
	}
	t.AddRow("Q2 (Ex 4.1, unbounded)", up2.Found || lo2.Found, "-", "-", !up2.Found && !lo2.Found)
	// Example 4.5 split rewrite.
	s45 := schema.MustNew(schema.MustRelation("R", "A", "B", "C"))
	a45 := access.NewSchema(
		access.NewConstraint("R", attrs("A"), attrs("B"), 3),
		access.NewConstraint("R", attrs("B"), attrs("C"), 1),
	)
	q45 := &cq.CQ{Label: "Q45", Free: []string{"x", "y"},
		Atoms: []cq.Atom{cq.NewAtom("R", cq.Const(iv(1)), cq.Var("x"), cq.Var("y"))}}
	lo45, err := envelope.FindLower(q45, a45, s45, 2, envelope.Options{})
	if err != nil {
		return nil, err
	}
	t.AddRow("Q45 split rewrite (Ex 4.5)", lo45.Found, 0, lo45.Nl, lo45.Found && lo45.Exact)
	return t, nil
}

func setMinus(a, b []data.Tuple) int {
	have := make(map[value.Key]bool, len(b))
	for _, t := range b {
		have[t.Key()] = true
	}
	n := 0
	for _, t := range a {
		if !have[t.Key()] {
			n++
		}
	}
	return n
}

// E8QSP reproduces Section 5: Example 5.1's minimum parameter set and the
// MSC-shaped scaling of Example 5.2 (exact vs greedy).
func E8QSP(sizes []int) (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "bounded specialization (QSP) — Example 5.1 and MSC-shaped scaling",
		Header: []string{"case", "k", "found", "params", "subsets tried", "time (µs)"},
	}
	// Example 5.1.
	q51, params := workload.Q51()
	s := workload.AccidentSchema()
	a := workload.AccidentConstraints()
	start := time.Now()
	res, err := specialize.Decide(q51, a, s, params, 1, specialize.Options{})
	if err != nil {
		return nil, err
	}
	t.AddRow("Q51 exact", 1, res.Found, fmt.Sprint(res.Params), res.Tried, float64(time.Since(start).Microseconds()))

	// Example 5.2 family: n relations, instantiate one y per relation.
	for _, n := range sizes {
		s52, a52, q52, X := mscInstance(n)
		start = time.Now()
		resE, err := specialize.Decide(q52, a52, s52, X, n, specialize.Options{})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("MSC n=%d exact", n), n, resE.Found, len(resE.Params), resE.Tried,
			float64(time.Since(start).Microseconds()))
		start = time.Now()
		resG, err := specialize.Decide(q52, a52, s52, X, n, specialize.Options{Greedy: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("MSC n=%d greedy", n), n, resG.Found, len(resG.Params), resG.Tried,
			float64(time.Since(start).Microseconds()))
	}
	t.Notes = append(t.Notes, "exact search tries exponentially many subsets as n grows (NP-hardness, Theorem 5.3); greedy stays linear in n per step")
	return t, nil
}

// mscInstance builds the Example 5.2 encoding with n relations.
func mscInstance(n int) (*schema.Schema, *access.Schema, *cq.CQ, []string) {
	var rels []schema.Relation
	var cs []access.Constraint
	q := &cq.CQ{Label: fmt.Sprintf("Q52_%d", n)}
	var X []string
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("R%d", i)
		rels = append(rels, schema.MustRelation(name, "A", "B1", "B2", "B3"))
		cs = append(cs,
			access.NewConstraint(name, attrs("A"), attrs("B1", "B2", "B3"), 1),
			access.NewConstraint(name, attrs("B1"), attrs("A"), 1),
			access.NewConstraint(name, attrs("B2"), attrs("A"), 1),
			access.NewConstraint(name, attrs("B3"), attrs("A"), 1),
		)
		q.Atoms = append(q.Atoms,
			cq.NewAtom(name, cq.Const(iv(1)), cq.Const(iv(1)), cq.Const(iv(1)), cq.Const(iv(1))),
			cq.NewAtom(name, cq.Var(fmt.Sprintf("y%d", i)),
				cq.Var(fmt.Sprintf("z%d1", i)), cq.Var(fmt.Sprintf("z%d2", i)), cq.Var(fmt.Sprintf("z%d3", i))))
		X = append(X, fmt.Sprintf("y%d", i))
	}
	return schema.MustNew(rels...), access.NewSchema(cs...), q, X
}

// E9GeneralConstraints exercises the general form R(X -> Y, s(·)): with a
// log-bounded constraint, fetched data grows like log |D| — no longer
// constant, but still exponentially below a scan (Section 2, Cor. 3.15).
func E9GeneralConstraints(sizes []int) (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "general access constraints R(X -> Y, log|D|) — sublinear access growth",
		Header: []string{"|D|", "bound log|D|", "fetched", "scanned (baseline)"},
	}
	s := schema.MustNew(schema.MustRelation("R", "A", "B"))
	a := access.NewSchema(access.Constraint{
		Rel: "R", X: attrs("A"), Y: attrs("B"), Card: access.LogCard(),
	})
	q := &cq.CQ{Label: "Qlog", Free: []string{"y"},
		Atoms: []cq.Atom{cq.NewAtom("R", cq.Var("c"), cq.Var("y"))},
		Eqs:   []cq.Eq{{L: cq.Var("c"), R: cq.Const(iv(1))}}}
	for _, n := range sizes {
		d := data.NewInstance(s)
		// Key 1 gets ~log2(n) values; the rest are unique-keyed filler.
		lg := access.LogCard().Bound(n)
		for i := 0; i < lg; i++ {
			d.MustInsert("R", iv(1), iv(int64(100+i)))
		}
		for i := d.Size(); i < n; i++ {
			d.MustInsert("R", iv(int64(1000+i)), iv(int64(i)))
		}
		eng, err := core.New(s, a, core.Options{})
		if err != nil {
			return nil, err
		}
		if err := eng.Load(d); err != nil {
			return nil, err
		}
		res, err := eng.Query(context.Background(), q, core.WithFallback(core.FallbackRefuse))
		if err != nil {
			return nil, err
		}
		base, err := eng.Baseline(q, eval.ScanJoin)
		if err != nil {
			return nil, err
		}
		t.AddRow(d.Size(), access.LogCard().Bound(d.Size()), res.Stats.Fetched, base.Scanned)
	}
	t.Notes = append(t.Notes, "fetched grows like log|D| while the scan grows like |D|")
	return t, nil
}

// E10PaperExamples is the regression table: the BEP verdict for every
// worked example in the paper, against the paper's own classification.
func E10PaperExamples() (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "paper worked examples — BEP checker verdicts",
		Header: []string{"example", "paper says", "checker verdict", "agrees"},
	}
	type fixture struct {
		name  string
		paper string
		want  bep.Verdict
		q     *cq.CQ
		a     *access.Schema
		s     *schema.Schema
	}
	var fixtures []fixture

	// Q0 (Example 1.1).
	fixtures = append(fixtures, fixture{
		name: "Q0 (Ex 1.1)", paper: "boundedly evaluable", want: bep.Bounded,
		q: workload.Q0(), a: workload.AccidentConstraints(), s: workload.AccidentSchema(),
	})
	// Q1 (Example 3.1(1)).
	s1 := schema.MustNew(schema.MustRelation("R1", "A", "B", "E", "F"))
	fixtures = append(fixtures, fixture{
		name: "Q1 (Ex 3.1(1))", paper: "not boundedly evaluable", want: bep.Unknown,
		q: &cq.CQ{Label: "Q1", Free: []string{"x", "y"},
			Atoms: []cq.Atom{cq.NewAtom("R1", cq.Var("x1"), cq.Var("x"), cq.Var("x2"), cq.Var("y"))},
			Eqs: []cq.Eq{
				{L: cq.Var("x1"), R: cq.Const(iv(1))},
				{L: cq.Var("x2"), R: cq.Const(iv(1))},
			}},
		a: access.NewSchema(
			access.NewConstraint("R1", attrs("A"), attrs("B"), 3),
			access.NewConstraint("R1", attrs("E"), attrs("F"), 4),
		),
		s: s1,
	})
	// Q2 (Example 3.1(2)).
	s2 := schema.MustNew(schema.MustRelation("R2", "A", "B"))
	fixtures = append(fixtures, fixture{
		name: "Q2 (Ex 3.1(2))", paper: "bounded (A-unsatisfiable)", want: bep.BoundedEmpty,
		q: &cq.CQ{Label: "Q2", Free: []string{"x"},
			Atoms: []cq.Atom{
				cq.NewAtom("R2", cq.Var("x"), cq.Var("x1")),
				cq.NewAtom("R2", cq.Var("x"), cq.Var("x2")),
			},
			Eqs: []cq.Eq{
				{L: cq.Var("x1"), R: cq.Const(iv(1))},
				{L: cq.Var("x2"), R: cq.Const(iv(2))},
			}},
		a: access.NewSchema(access.NewConstraint("R2", attrs("A"), attrs("B"), 1)),
		s: s2,
	})
	// Q3 (Example 3.1(3) / 3.10).
	s3 := schema.MustNew(schema.MustRelation("R3", "A", "B", "C"))
	fixtures = append(fixtures, fixture{
		name: "Q3 (Ex 3.1(3))", paper: "boundedly evaluable", want: bep.Bounded,
		q: &cq.CQ{Label: "Q3", Free: []string{"x", "y"},
			Atoms: []cq.Atom{
				cq.NewAtom("R3", cq.Var("x1"), cq.Var("x2"), cq.Var("x")),
				cq.NewAtom("R3", cq.Var("z1"), cq.Var("z2"), cq.Var("y")),
				cq.NewAtom("R3", cq.Var("x"), cq.Var("y"), cq.Var("z3")),
			},
			Eqs: []cq.Eq{
				{L: cq.Var("x1"), R: cq.Const(iv(1))},
				{L: cq.Var("x2"), R: cq.Const(iv(1))},
			}},
		a: access.NewSchema(
			access.NewConstraint("R3", nil, attrs("C"), 1),
			access.NewConstraint("R3", attrs("A", "B"), attrs("C"), 5),
		),
		s: s3,
	})
	// Q41_1 (Example 4.1): bounded but NOT boundedly evaluable.
	s4 := schema.MustNew(schema.MustRelation("R", "A", "B"))
	fixtures = append(fixtures, fixture{
		name: "Q1 (Ex 4.1)", paper: "bounded, not boundedly evaluable", want: bep.Unknown,
		q: &cq.CQ{Label: "Q41", Free: []string{"x"},
			Atoms: []cq.Atom{
				cq.NewAtom("R", cq.Var("w"), cq.Var("x")),
				cq.NewAtom("R", cq.Var("y"), cq.Var("w")),
				cq.NewAtom("R", cq.Var("x"), cq.Var("z")),
			},
			Eqs: []cq.Eq{{L: cq.Var("w"), R: cq.Const(iv(1))}}},
		a: access.NewSchema(access.NewConstraint("R", attrs("A"), attrs("B"), 3)),
		s: s4,
	})
	for _, f := range fixtures {
		dec, err := bep.Decide(f.q, f.a, f.s, bep.Options{UseAContainment: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(f.name, f.paper, dec.Verdict.String(), dec.Verdict == f.want)
	}
	return t, nil
}

// All runs every experiment with default parameters, in order.
func All() ([]*Table, error) {
	var out []*Table
	steps := []func() (*Table, error){
		func() (*Table, error) { return E1ScaleSweep([]int{5, 20, 80}) },
		func() (*Table, error) { return E2CQPScaling([]int{2, 4, 8, 16, 32}) },
		func() (*Table, error) { return E3UCQCoverage([]int{3, 4, 5, 6}) },
		func() (*Table, error) { return E4CoverageRate(120, 700) },
		func() (*Table, error) { return E5Speedup([]int{5, 20, 80}) },
		func() (*Table, error) { return E6GraphPatterns(2000) },
		E7Envelopes,
		func() (*Table, error) { return E8QSP([]int{2, 4, 6}) },
		func() (*Table, error) { return E9GeneralConstraints([]int{1 << 8, 1 << 12, 1 << 16}) },
		E10PaperExamples,
	}
	for _, step := range steps {
		tb, err := step()
		if err != nil {
			return nil, err
		}
		out = append(out, tb)
	}
	return out, nil
}
