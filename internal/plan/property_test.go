package plan

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/access"
	"repro/internal/cover"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workload"
)

// Property test of plan synthesis: over thousands of generated CQs on the
// accidents and social fixtures, every covered query's plan answers
// exactly what naive evaluation answers and fetches no more than its
// static bound. Covered pairs of equal arity are also planned as a UCQ
// through BuildUCQ. The generator is checked to produce the shapes the
// builder's shortcuts must get right: a variable repeated inside one
// atom, several constants with one value in two slots, self-joins, and a
// class that only a later fetch's X reads.

// propFixture is one schema with its access schema, instances satisfying
// it, and per-attribute constants drawn from the first instance.
type propFixture struct {
	name   string
	schema *schema.Schema
	access *access.Schema
	insts  []*data.Instance
	ixs    []*access.Indexed
	consts map[schema.Attribute][]value.Value
}

func newPropFixture(t *testing.T, name string, s *schema.Schema, a *access.Schema, insts ...*data.Instance) *propFixture {
	t.Helper()
	fx := &propFixture{name: name, schema: s, access: a, insts: insts,
		consts: make(map[schema.Attribute][]value.Value)}
	for _, d := range insts {
		ix, viols, err := access.BuildIndexed(a, d)
		if err != nil || len(viols) > 0 {
			t.Fatalf("%s: BuildIndexed: %v %v", name, viols, err)
		}
		fx.ixs = append(fx.ixs, ix)
	}
	// The first two distinct values of each column: small ids recur across
	// id columns, so one constant value lands in several attributes.
	for _, rs := range s.Relations() {
		r := insts[0].Relation(rs.Name)
		for col, attr := range rs.Attrs {
			for i := 0; i < r.Len() && len(fx.consts[attr]) < 2; i++ {
				v := r.ValueAt(i, col)
				if !containsValue(fx.consts[attr], v) {
					fx.consts[attr] = append(fx.consts[attr], v)
				}
			}
		}
	}
	return fx
}

func containsValue(vs []value.Value, v value.Value) bool {
	for _, w := range vs {
		if w == v {
			return true
		}
	}
	return false
}

func propFixtures(t *testing.T) []*propFixture {
	t.Helper()
	var accs, socs []*data.Instance
	for seed := int64(1); seed <= 2; seed++ {
		acc, err := workload.GenerateAccidents(workload.AccidentConfig{
			Days: 2, AccidentsPerDay: 3, MaxVehicles: 3, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, acc.Instance)
		soc, err := workload.GenerateSocial(workload.SocialConfig{
			People: 10, MaxFriends: 3, MaxLikes: 2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		socs = append(socs, soc.Instance)
	}
	return []*propFixture{
		newPropFixture(t, "accidents", workload.AccidentSchema(), workload.AccidentConstraints(), accs...),
		newPropFixture(t, "social", workload.SocialSchema(), workload.SocialConstraints(3, 2), socs...),
	}
}

// genCQ draws a CQ of one to three atoms over a pool of two to four
// variables, so repeated variables and self-joins are common; a quarter
// of the slots hold constants, and some queries add var = const or
// var = var equalities and a repeated head variable.
func genCQ(rng *rand.Rand, fx *propFixture, label string) *cq.CQ {
	rels := fx.schema.Relations()
	pool := 2 + rng.Intn(3)
	q := &cq.CQ{Label: label}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		rel := rels[rng.Intn(len(rels))]
		args := make([]cq.Term, rel.Arity())
		for p, attr := range rel.Attrs {
			if cs := fx.consts[attr]; len(cs) > 0 && rng.Intn(4) == 0 {
				args[p] = cq.Const(cs[rng.Intn(len(cs))])
			} else {
				args[p] = cq.Var(fmt.Sprintf("v%d", rng.Intn(pool)))
			}
		}
		q.Atoms = append(q.Atoms, cq.Atom{Rel: rel.Name, Args: args})
	}
	var vars []string
	for v := range q.AtomVars() {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	if len(vars) > 0 && rng.Intn(4) == 0 {
		v := vars[rng.Intn(len(vars))]
		attrs := make([]schema.Attribute, 0, len(fx.consts))
		for a := range fx.consts {
			attrs = append(attrs, a)
		}
		sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })
		cs := fx.consts[attrs[rng.Intn(len(attrs))]]
		q.Eqs = append(q.Eqs, cq.Eq{L: cq.Var(v), R: cq.Const(cs[rng.Intn(len(cs))])})
	}
	if len(vars) > 1 && rng.Intn(6) == 0 {
		q.Eqs = append(q.Eqs, cq.Eq{L: cq.Var(vars[0]), R: cq.Var(vars[1+rng.Intn(len(vars)-1)])})
	}
	for _, v := range vars {
		if rng.Intn(3) == 0 {
			q.Free = append(q.Free, v)
		}
	}
	if len(q.Free) > 0 && rng.Intn(8) == 0 {
		q.Free = append(q.Free, q.Free[0])
	}
	return q
}

// propFeatures names the query shapes the generator must produce among
// covered queries.
type propFeatures struct {
	repeatInAtom, multiConst, constCollision, selfJoin, readOnlyAsX, ucqPairs int
}

func (f *propFeatures) observe(q *cq.CQ, res *cover.Result) {
	rels := map[string]bool{}
	selfJoin := false
	var consts []value.Value
	collision := false
	addConst := func(v value.Value) {
		if containsValue(consts, v) {
			collision = true
		}
		consts = append(consts, v)
	}
	for _, a := range q.Atoms {
		selfJoin = selfJoin || rels[a.Rel]
		rels[a.Rel] = true
		seen := map[string]bool{}
		for _, t := range a.Args {
			if !t.IsVar() {
				addConst(t.C)
			} else if seen[t.V] {
				f.repeatInAtom++
			} else {
				seen[t.V] = true
			}
		}
	}
	for _, e := range q.Eqs {
		for _, t := range []cq.Term{e.L, e.R} {
			if !t.IsVar() {
				addConst(t.C)
			}
		}
	}
	if selfJoin {
		f.selfJoin++
	}
	if len(consts) >= 2 {
		f.multiConst++
	}
	if collision {
		f.constCollision++
	}
	// A variable occurring once, not in the head, that a fixpoint
	// application reads as its X: dropping it as an unconstrained
	// singleton would starve that fetch.
	an := res.Analysis
	free := map[string]bool{}
	for _, v := range an.Q.Free {
		free[v] = true
	}
	for _, ap := range an.Applications {
		for _, x := range ap.XVars {
			if an.Occurs[x] == 1 && !free[x] {
				f.readOnlyAsX++
				return
			}
		}
	}
}

func sameRows(got *Table, want []data.Tuple) bool {
	if got.Len() != len(want) {
		return false
	}
	keys := make(map[value.Key]bool, len(want))
	for _, w := range want {
		keys[w.Key()] = true
	}
	for _, g := range got.Rows {
		if !keys[g.Key()] {
			return false
		}
	}
	return true
}

// withParams returns q with each constant from[i] replaced by to[i].
func withParams(q *cq.CQ, from, to []value.Value) *cq.CQ {
	out := q.Clone()
	sub := func(t *cq.Term) {
		if !t.IsVar() {
			t.C = to[slices.Index(from, t.C)]
		}
	}
	for i := range out.Atoms {
		for j := range out.Atoms[i].Args {
			sub(&out.Atoms[i].Args[j])
		}
	}
	for i := range out.Eqs {
		sub(&out.Eqs[i].L)
		sub(&out.Eqs[i].R)
	}
	return out
}

// orderLog records the order of a streamed run's fetch calls and
// yields: a fetch call made after the first yielded row is late.
type orderLog struct {
	yields int
	late   []string
}

func (l *orderLog) fetch(call string) {
	if l.yields > 0 {
		l.late = append(l.late, call)
	}
}

// orderSource resolves every constraint to a fetcher of one kind —
// FetchBytes only, FetchBatch, or FetchRouted by the constraint's X —
// that logs each call and answers from the wrapped Source.
type orderSource struct {
	Source
	kind string
	log  *orderLog
}

func (s orderSource) FetcherFor(c access.Constraint) Fetcher {
	f := s.Source.FetcherFor(c)
	if f == nil {
		return nil
	}
	o := orderFetcher{f: f, c: c, log: s.log}
	switch s.kind {
	case "batch":
		return batchOrderFetcher{o}
	case "routed":
		return routedOrderFetcher{o}
	}
	return o
}

type orderFetcher struct {
	f   Fetcher
	c   access.Constraint
	log *orderLog
}

func (o orderFetcher) FetchBytes(k []byte) index.Bucket {
	o.log.fetch("FetchBytes")
	return o.f.FetchBytes(k)
}

type batchOrderFetcher struct{ orderFetcher }

func (o batchOrderFetcher) FetchBatch(ctx context.Context, keys [][]byte, out []index.Bucket) error {
	o.log.fetch("FetchBatch")
	return FetchAll(ctx, o.f, keys, out)
}

type routedOrderFetcher struct{ orderFetcher }

func (o routedOrderFetcher) RouteBy() []schema.Attribute { return o.c.X }

func (o routedOrderFetcher) FetchRouted(ctx context.Context, keys, _ [][]byte, out []index.Bucket) error {
	o.log.fetch("FetchRouted")
	return FetchAll(ctx, o.f, keys, out)
}

// checkPlan executes p on every instance of fx and compares it with naive
// evaluation of the union of qs (one CQ, or the UCQ's sub-queries). It
// streams p through each kind of fetcher to check that every fetch call
// comes before the first yielded row: the server writes an answer in
// whole chunks on that ground, so an executor that fetches after it has
// begun to yield must revisit that policy. It also checks p's shape:
// every step but the last feeds a later step, every sub-plan holds
// exactly one literal, and rebinding p's constants (Bind) gives exactly
// the plan build makes for qs with those constants replaced by fresh
// ones.
func checkPlan(t *testing.T, fx *propFixture, qs []*cq.CQ, p *Plan, build func([]*cq.CQ) (*Plan, error)) {
	t.Helper()
	read := make([]bool, len(p.Steps))
	literals, unions := 0, 0
	for _, op := range p.Steps {
		in, n := op.inputs()
		for _, j := range in[:n] {
			read[j] = true
		}
		switch op.(type) {
		case ConstOp:
			literals++
		case UnionOp:
			unions++
		}
	}
	if i := slices.Index(read[:len(read)-1], false); i >= 0 {
		t.Fatalf("%v: step T%d is read by no later step\nplan:\n%s", qs, i, p)
	}
	if literals != unions+1 {
		t.Fatalf("%v: %d literals for %d sub-plans\nplan:\n%s", qs, literals, unions+1, p)
	}
	var params []value.Value
	for _, q := range qs {
		_, ps := q.KeyParams()
		for _, v := range ps {
			if !slices.Contains(params, v) {
				params = append(params, v)
			}
		}
	}
	fresh := make([]value.Value, len(params))
	for i, v := range params {
		fresh[i] = value.NewString(fmt.Sprintf("fresh-%d", i))
		if v.Kind() == value.Int {
			fresh[i] = value.NewInt(1_000_000 + int64(i))
		}
	}
	rebuilt := make([]*cq.CQ, len(qs))
	for i, q := range qs {
		rebuilt[i] = withParams(q, params, fresh)
	}
	want, err := build(rebuilt)
	if err != nil {
		t.Fatalf("%v: %v", rebuilt, err)
	}
	if got := Bind(p, params, fresh); got == nil || got.String() != want.String() {
		t.Fatalf("%v: rebinding %v to %v gives\n%v\nwant the plan of %v:\n%s", qs, params, fresh, got, rebuilt, want)
	}

	bound, err := AccessBound(p, 0)
	if err != nil {
		t.Fatalf("%v: bound: %v\nplan:\n%s", qs, err, p)
	}
	for i, ix := range fx.ixs {
		got, stats, err := Execute(p, ix)
		if err != nil {
			t.Fatalf("%v on %s #%d: %v\nplan:\n%s", qs, fx.name, i, err, p)
		}
		want, err := eval.UCQ(qs, fx.insts[i], eval.ScanJoin)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(got, want.Rows) {
			t.Fatalf("%v on %s #%d: plan rows %v != eval rows %v\nplan:\n%s",
				qs, fx.name, i, got.Rows, want.Rows, p)
		}
		if stats.Fetched > bound.Fetched {
			t.Fatalf("%v on %s #%d: fetched %d exceeds the static bound %d\nplan:\n%s",
				qs, fx.name, i, stats.Fetched, bound.Fetched, p)
		}
		for _, kind := range []string{"per-key", "batch", "routed"} {
			log := &orderLog{}
			src := orderSource{Source: NewSource(ix), kind: kind, log: log}
			if _, err := ExecuteStreamSource(context.Background(), p, src, func(data.Tuple) bool {
				log.yields++
				return true
			}); err != nil {
				t.Fatalf("%v on %s #%d through %s fetchers: %v\nplan:\n%s", qs, fx.name, i, kind, err, p)
			}
			if log.yields != got.Len() || len(log.late) > 0 {
				t.Fatalf("%v on %s #%d through %s fetchers: %d rows yielded (want %d), fetch calls after the first: %v\nplan:\n%s",
					qs, fx.name, i, kind, log.yields, got.Len(), log.late, p)
			}
		}
	}
}

func TestPropertyCoveredPlansAgreeWithEval(t *testing.T) {
	queries := 10_000
	if testing.Short() {
		queries = 2_000
	}
	var feat propFeatures
	covered := 0
	forEachCoveredPlan(t, queries, func(fx *propFixture, qs []*cq.CQ, p *Plan, build func([]*cq.CQ) (*Plan, error)) {
		if len(qs) == 1 {
			covered++
			res, err := cover.Check(qs[0], fx.access, fx.schema, cover.Options{})
			if err != nil {
				t.Fatal(err)
			}
			feat.observe(qs[0], res)
		} else {
			feat.ucqPairs++
		}
		checkPlan(t, fx, qs, p, build)
	})
	t.Logf("%d generated, %d covered; features %+v", queries, covered, feat)
	for name, n := range map[string]int{
		"variable repeated inside one atom":    feat.repeatInAtom,
		"two or more constants":                feat.multiConst,
		"one constant value in two slots":      feat.constCollision,
		"self-join":                            feat.selfJoin,
		"class read only as a later fetch's X": feat.readOnlyAsX,
		"UCQ pair":                             feat.ucqPairs,
	} {
		if n < 10 {
			t.Errorf("generator produced only %d covered queries with a %s", n, name)
		}
	}
}
