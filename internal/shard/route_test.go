package shard

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/workload"
)

// routeScatter runs q on both engines, fails unless the fleet answers the
// single engine's rows in its order with its Fetched and FetchKeys, and
// returns the keys the fleet's traced fetch steps routed and scattered.
func routeScatter(t *testing.T, single *core.Engine, fleet *Engine, q *cq.CQ) (route, scatter int64) {
	t.Helper()
	want, err := single.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", q.Label, err)
	}
	tr := obs.NewTrace("query")
	got, err := fleet.Query(obs.NewContext(context.Background(), tr), q)
	if err != nil {
		t.Fatalf("%s: %v", q.Label, err)
	}
	sameResults(t, want, got)
	if got.Mode != core.ViaBoundedPlan {
		t.Fatalf("%s: served %v, want a bounded plan", q.Label, got.Mode)
	}
	if want.Stats.Fetched != got.Stats.Fetched || want.Stats.FetchKeys != got.Stats.FetchKeys {
		t.Fatalf("%s: fleet fetched %d tuples for %d keys, single engine %d for %d", q.Label,
			got.Stats.Fetched, got.Stats.FetchKeys, want.Stats.Fetched, want.Stats.FetchKeys)
	}
	for _, s := range tr.Finish().Children {
		switch {
		case strings.HasSuffix(s.Name, " route"):
			route += s.Keys
		case strings.HasSuffix(s.Name, " scatter"):
			scatter += s.Keys
		}
	}
	return route, scatter
}

// accidentQuery is Q(head) :- Accident(aid, district, date), with any
// argument a constant when given as one.
func accidentQuery(label string, head []string, aid, district, date cq.Term) *cq.CQ {
	return &cq.CQ{Label: label, Free: head,
		Atoms: []cq.Atom{cq.NewAtom("Accident", aid, district, date)}}
}

// TestQ0RoutesEveryStep: every Q0 variant's non-aligned step,
// fetch(aid ∈ T1, Accident(aid → district date, 1)), routes on a K = 4
// fleet. Its rows carry each aid's date, which T1 bound with the aid by
// fetching the same atom, and Accident is partitioned by date.
func TestQ0RoutesEveryStep(t *testing.T) {
	single, fleet := newAccidents(t, 4, 4)
	for day := 0; day < 4; day++ {
		for _, district := range workload.Districts[:3] {
			q := workload.Q0()
			q.Label = fmt.Sprintf("Q0[%s, %s]", district, workload.DateName(day))
			q.Atoms[0].Args[1] = cq.Const(sv(district))
			q.Atoms[0].Args[2] = cq.Const(sv(workload.DateName(day)))
			route, scatter := routeScatter(t, single, fleet, q)
			if scatter != 0 || route == 0 {
				t.Fatalf("%s: %d keys routed, %d scattered; want every key routed", q.Label, route, scatter)
			}
		}
	}
}

// TestBoundAidWithoutAccidentFetchScatters: an aid the query gives as a
// constant was bound by no fetch on Accident, so the row's date, if it
// has one, is the query's constant and not the aid's own. Routing by it
// would ask the wrong partition for an aid that lies on another day:
// the step must scatter and fetch what the single engine fetches.
func TestBoundAidWithoutAccidentFetchScatters(t *testing.T) {
	single, fleet := newAccidents(t, 4, 4)
	aid := cq.Const(iv(3))
	own := accidentQuery("own", []string{"district", "date"}, aid, cq.Var("district"), cq.Var("date"))
	if _, scatter := routeScatter(t, single, fleet, own); scatter == 0 {
		t.Fatal("a constant aid with no date in the row routed")
	}
	res, err := single.Query(context.Background(), own)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("aid 3: %v rows, %v", res, err)
	}
	date := res.Rows[0][1]
	home := ShardOf(data.Tuple{date}.Key(), 4)
	for day := 0; day < 4; day++ {
		other := sv(workload.DateName(day))
		if ShardOf(data.Tuple{other}.Key(), 4) == home {
			continue
		}
		q := accidentQuery("elsewhere", []string{"district"}, aid, cq.Var("district"), cq.Const(other))
		if _, scatter := routeScatter(t, single, fleet, q); scatter == 0 {
			t.Fatalf("aid 3 (of %s) with the constant date %s routed", date, other)
		}
		return
	}
	t.Fatal("no date in the data lies on another partition than aid 3's")
}

// TestRouteRuleComesFromTheConstraints runs the rule on another catalog:
// ecommerce's Product is partitioned by make (its first constraint's X),
// and Product(pid → make price, 1) holds make. A make's products, fetched
// through Product(make → pid), carry the make their pid lives under, so
// the pid step routes. Declared with N = 2 instead, a pid's group may
// span makes and the same step scatters.
func TestRouteRuleComesFromTheConstraints(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("Product", "pid", "make", "price"))
	attrs := func(as ...string) []schema.Attribute {
		out := make([]schema.Attribute, len(as))
		for i, a := range as {
			out[i] = schema.Attribute(a)
		}
		return out
	}
	makes := []string{"acme", "globex", "initech", "umbrella"}
	build := func() *data.Instance {
		d := data.NewInstance(s)
		for pid := int64(1); pid <= 200; pid++ {
			d.MustInsert("Product", iv(pid), sv(makes[pid%4]), iv(5+pid%37))
		}
		return d
	}
	for _, n := range []int{1, 2} {
		a := access.NewSchema(
			access.NewConstraint("Product", attrs("make"), attrs("pid"), 300),
			access.NewConstraint("Product", attrs("pid"), attrs("make", "price"), n),
		)
		single, err := core.New(s, a, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fleet, err := New(s, a, Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := single.Load(build()); err != nil {
			t.Fatal(err)
		}
		if err := fleet.Load(build()); err != nil {
			t.Fatal(err)
		}
		for _, m := range makes {
			q := &cq.CQ{Label: "priced " + m, Free: []string{"pid", "price"},
				Atoms: []cq.Atom{cq.NewAtom("Product", cq.Var("pid"), cq.Const(sv(m)), cq.Var("price"))}}
			route, scatter := routeScatter(t, single, fleet, q)
			if n == 1 && (scatter != 0 || route == 0) {
				t.Fatalf("N = 1, %s: %d keys routed, %d scattered; want every key routed", m, route, scatter)
			}
			if n == 2 && (scatter == 0 || route == 0) {
				t.Fatalf("N = 2, %s: %d keys routed, %d scattered; want the make step routed and the pid step scattered", m, route, scatter)
			}
		}
	}
}
