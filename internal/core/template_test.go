package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/ucq"
	"repro/internal/value"
	"repro/internal/workload"
)

// The plan cache keys on a query's template — its constants are typed
// holes (cq.KeyParams) — and serves a cached plan to every query of the
// template, rebound to the query's constants (plan.Bind). That is only
// sound if planning never looks at a constant beyond equality. The
// property below is the oracle for it: an engine whose cache already
// holds a template sibling must serve a query exactly as an engine with
// no cache at all — the same plan text, bound, rows in the same order
// and access counts — over generated queries on the accidents and
// social catalogs and on random schemas.

// tmplQuery is a query text whose constants are slots #0, #1, …; pools
// gives each slot the constants it draws from.
type tmplQuery struct {
	text  string
	pools [][]value.Value
	// union serves a multi-rule text as a *ucq.UCQ; otherwise it is
	// served as the parser's ∃FO⁺ query (or its CQ when single-rule).
	union bool
}

var slotRE = regexp.MustCompile(`#(\d+)`)

// render fills t's slots with fill.
func (t tmplQuery) render(fill []value.Value) string {
	return slotRE.ReplaceAllStringFunc(t.text, func(s string) string {
		i, _ := strconv.Atoi(s[1:])
		return fill[i].String()
	})
}

// templateFixture is one dataset with the templates generated over it.
type templateFixture struct {
	name string
	s    *schema.Schema
	a    *access.Schema
	d    *data.Instance
	tmpl []tmplQuery
}

func ints(lo, hi int64) []value.Value {
	var out []value.Value
	for i := lo; i <= hi; i++ {
		out = append(out, value.NewInt(i))
	}
	return out
}

func strs(ss ...string) []value.Value {
	out := make([]value.Value, len(ss))
	for i, s := range ss {
		out[i] = value.NewString(s)
	}
	return out
}

func accidentsTemplates(t *testing.T) templateFixture {
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: 4, AccidentsPerDay: 12, MaxVehicles: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var dates []value.Value
	for i := 0; i < 4; i++ {
		dates = append(dates, value.NewString(workload.DateName(i)))
	}
	district := strs(workload.Districts...)
	aid, class := ints(1, 48), ints(1, 3)
	q0Body := "Casualty(cid, aid, class, vid), Vehicle(vid, dri, xa)"
	return templateFixture{name: "accidents", s: acc.Schema, a: acc.Access, d: acc.Instance, tmpl: []tmplQuery{
		{text: "query Q0(xa) :- Accident(aid, #0, #1), " + q0Body + ".", pools: [][]value.Value{district, dates}},
		{text: "query Q0h(xa) :- Accident(aid, d, t), " + q0Body + ", t = #1, d = #0.", pools: [][]value.Value{district, dates}},
		{text: "query A1(d) :- Accident(a, d, t), t = #0.", pools: [][]value.Value{dates}},
		{text: "query A2(t, d) :- Accident(a, d, t), a = #0.", pools: [][]value.Value{aid}},
		// Two pins of one variable: A-unsatisfiable unless they collide.
		{text: "query A3(d) :- Accident(a, d, t), a = #0, a = #1.", pools: [][]value.Value{aid, aid}},
		// An aid and a class that may collide; a repeated variable.
		{text: "query A4(v) :- Casualty(c, a, k, v), Casualty(c2, a, k, v), a = #0, k = #1.", pools: [][]value.Value{aid, class}},
		// Not bounded (no constraint keys on age): the scan fallback.
		{text: "query A5(x) :- Vehicle(v, x, y), y = #0.", pools: [][]value.Value{ints(17, 40)}},
		{text: "query U(xa) :- Accident(aid, #0, #1), " + q0Body + ".\nquery U(xa) :- Accident(aid, #2, #1), " + q0Body + ".",
			pools: [][]value.Value{district, dates, district}, union: true},
		{text: "query F(v) :- Casualty(c, a, k, v), a = #0, (k = #1 | k = #2).", pools: [][]value.Value{aid, class, class}},
	}}
}

func socialTemplates(t *testing.T) templateFixture {
	soc, err := workload.GenerateSocial(workload.SocialConfig{People: 150, MaxFriends: 8, MaxLikes: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	pid, city, topic := ints(1, 150), strs(workload.Cities...), strs(workload.Topics...)
	return templateFixture{name: "social", s: soc.Schema, a: soc.Access, d: soc.Instance, tmpl: []tmplQuery{
		{text: "query G(f) :- Friend(me, f), Person(f, n, #0), Likes(f, #1), me = #2.", pools: [][]value.Value{city, topic, pid}},
		{text: "query G2(f) :- Friend(#0, f), Person(f, n, #1).", pools: [][]value.Value{pid, city}},
		{text: "query P(g) :- Friend(me, f), Friend(f, g), me = #0.", pools: [][]value.Value{pid}},
		{text: "query T(f) :- Friend(me, f), Friend(f, me), me = #0.", pools: [][]value.Value{pid}},
		// Two anchors that may collide.
		{text: "query S(f) :- Friend(#0, f), Friend(f, #1).", pools: [][]value.Value{pid, pid}},
		{text: "query C(f) :- Friend(#0, f), Person(f, n, c), c = #1, c = #2.", pools: [][]value.Value{pid, city, city}},
		{text: "query U(f) :- Friend(#0, f), Likes(f, #1).\nquery U(f) :- Friend(#0, f), Person(f, n, #2).",
			pools: [][]value.Value{pid, topic, city}, union: true},
		{text: "query L(f) :- Friend(me, f), me = #0, (Likes(f, #1) | Person(f, n, #2)).", pools: [][]value.Value{pid, topic, city}},
		{text: "query N(p) :- Person(p, n, #0).", pools: [][]value.Value{city}},
	}}
}

// randomDomain mixes ints and strings, 1 beside "1" included.
var randomDomain = append(ints(0, 3), strs("0", "1", "2", "a")...)

// randomTemplates builds a random schema whose data satisfies its access
// constraints by construction (each N is the largest group the data
// has), and random CQ, UCQ and ∃FO⁺ templates over it: repeated
// variables, inline and hoisted constant slots, and double pins.
func randomTemplates(t *testing.T, seed int64) templateFixture {
	rng := rand.New(rand.NewSource(seed))
	s := schema.MustNew(
		schema.MustRelation("R", "A", "B"),
		schema.MustRelation("S", "A", "B", "C"),
		schema.MustRelation("T", "A", "B"),
	)
	d := data.NewInstance(s)
	pick := func() value.Value { return randomDomain[rng.Intn(len(randomDomain))] }
	for i := 0; i < 30; i++ {
		d.MustInsert("R", pick(), pick())
		d.MustInsert("S", pick(), pick(), pick())
		a := pick()
		d.MustInsert("T", a, randomDomain[(slices.Index(randomDomain, a)*3)%len(randomDomain)])
	}
	// Constraints, several per relation (they share relations and
	// attributes), each sized to the data.
	type xy struct {
		rel  string
		x, y []schema.Attribute
	}
	shapes := []xy{
		{"R", attrList("A"), attrList("B")},
		{"R", attrList("B"), attrList("A")},
		{"S", attrList("A"), attrList("B", "C")},
		{"S", attrList("A", "B"), attrList("C")},
		{"T", attrList("A"), attrList("B")},
	}
	var cs []access.Constraint
	for _, sh := range shapes {
		if rng.Intn(4) == 0 && sh.rel != "T" {
			continue
		}
		cs = append(cs, access.NewConstraint(sh.rel, sh.x, sh.y, maxGroup(t, d, s, sh.rel, sh.x, sh.y)))
	}
	fx := templateFixture{name: fmt.Sprintf("random%d", seed), s: s, a: access.NewSchema(cs...), d: d}

	rels := s.Relations()
	for qi := 0; qi < 40; qi++ {
		var slots int
		slot := func() string { slots++; return fmt.Sprintf("#%d", slots-1) }
		body := func(head string, vars []string) []string {
			var conj []string
			for n := 1 + rng.Intn(3); n > 0; n-- {
				rel := rels[rng.Intn(len(rels))]
				args := make([]string, rel.Arity())
				for i := range args {
					if rng.Intn(4) == 0 {
						args[i] = slot()
					} else {
						args[i] = vars[rng.Intn(len(vars))]
					}
				}
				if len(conj) == 0 {
					args[rng.Intn(len(args))] = head
				}
				conj = append(conj, rel.Name+"("+strings.Join(args, ", ")+")")
			}
			for _, v := range vars {
				switch rng.Intn(6) {
				case 0:
					conj = append(conj, v+" = "+slot())
				case 1:
					conj = append(conj, v+" = "+slot(), v+" = "+slot())
				}
			}
			return conj
		}
		vars := []string{"x", "y", "z"}
		var text string
		union := false
		switch qi % 4 {
		case 0, 1:
			text = fmt.Sprintf("query Q%d(h) :- %s.", qi, strings.Join(body("h", vars), ", "))
		case 2:
			union = true
			text = fmt.Sprintf("query Q%d(h) :- %s.\nquery Q%d(h) :- %s.",
				qi, strings.Join(body("h", vars), ", "), qi, strings.Join(body("h", vars), ", "))
		case 3:
			text = fmt.Sprintf("query Q%d(h) :- %s, (%s | %s).", qi, strings.Join(body("h", vars), ", "),
				strings.Join(body("h", []string{"x", "w"}), ", "), strings.Join(body("h", []string{"y", "w"}), ", "))
		}
		pools := make([][]value.Value, slots)
		for i := range pools {
			pools[i] = randomDomain
		}
		fx.tmpl = append(fx.tmpl, tmplQuery{text: text, pools: pools, union: union})
	}
	return fx
}

func attrList(as ...string) []schema.Attribute {
	out := make([]schema.Attribute, len(as))
	for i, a := range as {
		out[i] = schema.Attribute(a)
	}
	return out
}

// maxGroup is the largest number of distinct Y-values any X-value has in
// d's relation rel: the tightest N the data satisfies.
func maxGroup(t *testing.T, d *data.Instance, s *schema.Schema, rel string, x, y []schema.Attribute) int {
	rs, _ := s.Relation(rel)
	xp, err := rs.Positions(x)
	if err != nil {
		t.Fatal(err)
	}
	yp, err := rs.Positions(y)
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]map[string]bool{}
	r := d.Relation(rel)
	var row data.Tuple
	for i := 0; i < r.Len(); i++ {
		row = r.AppendRow(row[:0], i)
		var xk, yk string
		for _, p := range xp {
			xk += row[p].String() + "\x00"
		}
		for _, p := range yp {
			yk += row[p].String() + "\x00"
		}
		if groups[xk] == nil {
			groups[xk] = map[string]bool{}
		}
		groups[xk][yk] = true
	}
	n := 1
	for _, g := range groups {
		n = max(n, len(g))
	}
	return n
}

// parsedTemplate is one rendering of a template, parsed.
type parsedTemplate struct {
	q      Query // as the engine is asked to serve it
	key    string
	params []value.Value
	// vals are the distinct constants of the query's UCQ form.
	vals []value.Value
}

// parseTemplate parses text into the query the way the server would
// serve it, with its template key and params; false if text does not
// parse (e.g. an unsafe random query).
func parseTemplate(t *testing.T, s *schema.Schema, tq tmplQuery, text string) (parsedTemplate, bool) {
	t.Helper()
	qs, err := parser.ParseQueryRules(text, s)
	if err != nil {
		return parsedTemplate{}, false
	}
	pq := qs[0]
	var out parsedTemplate
	var all []value.Value
	for _, sub := range pq.Subs {
		all = append(all, sub.Constants()...)
	}
	out.vals = distinct(all)
	if pq.IsCQ() {
		out.q = pq.Subs[0]
		out.key, out.params = pq.Subs[0].KeyParams()
		return out, true
	}
	u, err := ucq.New(pq.Name, pq.Subs...)
	if err != nil {
		t.Fatal(err)
	}
	out.key, out.params = u.KeyParams()
	out.q = pq.PosFO
	if tq.union {
		out.q = u
	}
	return out, true
}

// draw fills t's slots, copying an earlier slot's constant a third of
// the time so colliding constants are common.
func (t tmplQuery) draw(rng *rand.Rand) []value.Value {
	fill := make([]value.Value, len(t.pools))
	for i, pool := range t.pools {
		fill[i] = pool[rng.Intn(len(pool))]
		if i > 0 && rng.Intn(3) == 0 {
			if j := rng.Intn(i); fill[j].Kind() == fill[i].Kind() {
				fill[i] = fill[j]
			}
		}
	}
	return fill
}

// renameFill applies an injective, kind-preserving renaming to fill's
// distinct constants, drawing images from the slots' pools. It reports
// the renaming too.
func (t tmplQuery) renameFill(rng *rand.Rand, fill []value.Value) ([]value.Value, map[value.Value]value.Value) {
	ren := map[value.Value]value.Value{}
	used := map[value.Value]bool{}
	out := make([]value.Value, len(fill))
	for i, v := range fill {
		if w, ok := ren[v]; ok {
			out[i] = w
			continue
		}
		var w value.Value
		for _, j := range rng.Perm(len(t.pools[i])) {
			if c := t.pools[i][j]; c.Kind() == v.Kind() && !used[c] {
				w = c
				break
			}
		}
		for n := 0; w.IsNull(); n++ { // pool exhausted: a fresh constant
			c := value.NewInt(int64(1000 + n))
			if v.Kind() == value.String {
				c = value.NewString("fresh" + strconv.Itoa(n))
			}
			if !used[c] {
				w = c
			}
		}
		ren[v], used[w] = w, true
		out[i] = w
	}
	return out, ren
}

// collapsing returns a non-injective renaming of fill's constants:
// its second distinct constant of some kind becomes the first (ok false
// if fill has no two distinct constants of one kind).
func collapsing(fill []value.Value) (from, to value.Value, ok bool) {
	for i, v := range fill {
		for _, w := range fill[:i] {
			if w != v && w.Kind() == v.Kind() {
				return v, w, true
			}
		}
	}
	return value.Value{}, value.Value{}, false
}

// retyping returns a renaming that changes a constant's kind: fill's
// first int becomes the string of its digits.
func retyping(fill []value.Value) (from, to value.Value, ok bool) {
	for _, v := range fill {
		if v.Kind() == value.Int {
			return v, value.NewString(strconv.FormatInt(v.Int(), 10)), true
		}
	}
	return value.Value{}, value.Value{}, false
}

func replaceValue(fill []value.Value, from, to value.Value) []value.Value {
	out := slices.Clone(fill)
	for i, v := range out {
		if v == from {
			out[i] = to
		}
	}
	return out
}

func TestTemplateHitEquivalentToColdPlanning(t *testing.T) {
	fixtures := []templateFixture{accidentsTemplates(t), socialTemplates(t), randomTemplates(t, 1), randomTemplates(t, 2)}
	rng := rand.New(rand.NewSource(7))
	rebound, served := 0, 0
	for _, fx := range fixtures {
		cold, err := New(fx.s, fx.a, Options{PlanCache: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := cold.Load(fx.d); err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		for ti, tq := range fx.tmpl {
			// A fresh warm engine per template: its cache only ever holds
			// this template's siblings.
			warm, err := New(fx.s, fx.a, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := warm.Load(fx.d); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 6; round++ {
				fill := tq.draw(rng)
				text := tq.render(fill)
				pt, ok := parseTemplate(t, fx.s, tq, text)
				if !ok {
					break
				}
				q, key, params := pt.q, pt.key, pt.params
				name := fmt.Sprintf("%s/t%d/%d %q", fx.name, ti, round, text)
				if len(params) != len(pt.vals) {
					t.Fatalf("%s: params %v, want one per distinct constant of %v", name, params, pt.vals)
				}

				sibFill, ren := tq.renameFill(rng, fill)
				sibT, ok := parseTemplate(t, fx.s, tq, tq.render(sibFill))
				if !ok {
					t.Fatalf("%s: sibling %q does not parse", name, tq.render(sibFill))
				}
				sib, sibParams := sibT.q, sibT.params
				if sibT.key != key {
					t.Fatalf("%s: an injective renaming of the constants changed the key:\n%s\n%s", name, key, sibT.key)
				}
				for i, p := range params {
					if sibParams[i] != ren[p] {
						t.Fatalf("%s: hole %d holds %v, sibling's %v, want %v", name, i, p, sibParams[i], ren[p])
					}
				}
				// from ↦ to is non-injective or changes a kind on the
				// query's constants when from is one of them and to is
				// another, or of another kind: either way the key changes.
				for _, rename := range []func([]value.Value) (value.Value, value.Value, bool){collapsing, retyping} {
					from, to, ok := rename(fill)
					if !ok || !slices.Contains(pt.vals, from) || !slices.Contains(pt.vals, to) && to.Kind() == from.Kind() {
						continue
					}
					other := replaceValue(fill, from, to)
					if ot, ok := parseTemplate(t, fx.s, tq, tq.render(other)); ok && ot.key == key {
						t.Fatalf("%s: %v ↦ %v is not an injective, kind-preserving renaming, but keeps the key %s",
							name, from, to, key)
					}
				}

				// Serve the sibling first, so the query is a template hit.
				if _, err := warm.Query(context.Background(), sib); err != nil {
					t.Fatalf("%s: sibling: %v", name, err)
				}
				got, gerr := warm.Query(context.Background(), q)
				want, werr := cold.Query(context.Background(), q)
				if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
					t.Fatalf("%s: warm error %v, cold error %v", name, gerr, werr)
				}
				if gerr != nil {
					continue
				}
				served++
				if got.Stats.CacheHit && got.Plan != nil && !slices.Equal(params, sibParams) {
					rebound++
				}
				if got.Mode != want.Mode {
					t.Fatalf("%s: mode %v, cold %v", name, got.Mode, want.Mode)
				}
				if got.Plan != nil || want.Plan != nil {
					if got.Plan.String() != want.Plan.String() {
						t.Fatalf("%s: plan\n%s\ncold plan\n%s", name, got.Plan, want.Plan)
					}
					if !reflect.DeepEqual(*got.Bound, *want.Bound) {
						t.Fatalf("%s: bound %+v, cold %+v", name, *got.Bound, *want.Bound)
					}
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("%s: rows (in order)\n%v\ncold\n%v", name, got.Rows, want.Rows)
				}
				if got.Stats.Fetched != want.Stats.Fetched || got.Stats.FetchKeys != want.Stats.FetchKeys ||
					got.Stats.Scanned != want.Stats.Scanned {
					t.Fatalf("%s: stats %+v, cold %+v", name, got.Stats, want.Stats)
				}
			}
		}
	}
	t.Logf("%d queries served, %d of them by a rebound template plan", served, rebound)
	if rebound < served/3 {
		t.Fatalf("only %d of %d queries were served by rebinding: the property is barely exercised", rebound, served)
	}
}

func distinct(vs []value.Value) []value.Value {
	var out []value.Value
	for _, v := range vs {
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// TestExplainNamesItsOwnConstants pins the recompute half of the rule:
// a decision names the constants it was made for, so Explain of a
// template sibling re-plans instead of printing the cached query's.
func TestExplainNamesItsOwnConstants(t *testing.T) {
	eng := accidentsEngine(t, Options{}, 2)
	day0 := workload.Q0()
	if _, err := eng.Query(context.Background(), day0); err != nil {
		t.Fatal(err)
	}
	day1 := workload.Q0()
	day1.Atoms[0].Args[2] = cq.Const(value.NewString(workload.DateName(1)))
	out, err := eng.Explain(day1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, workload.DateName(1)) || strings.Contains(out, workload.DateName(0)) {
		t.Fatalf("Explain of Q0 for %s must name that date, not %s:\n%s", workload.DateName(1), workload.DateName(0), out)
	}
	// The serving path still shares the template: day0 is now served
	// from day1's replacing entry, rebound.
	res, err := eng.Query(context.Background(), day0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.CacheHit || !strings.Contains(res.Plan.String(), workload.DateName(0)) {
		t.Fatalf("Q0 must be a template hit rebound to its own date:\n%s", res.Plan)
	}
}

// TestTemplateHitAllocCeiling pins what serving a cached template with
// new constants costs the planner: the key, the lookup and the rebound
// plan — a small constant, not a re-plan.
func TestTemplateHitAllocCeiling(t *testing.T) {
	eng := accidentsEngine(t, Options{}, 2)
	if _, _, err := eng.Plan(workload.Q0()); err != nil {
		t.Fatal(err)
	}
	other := workload.Q0()
	other.Atoms[0].Args[1] = cq.Const(value.NewString("Soho"))
	base := eng.CacheStats()
	var p *plan.Plan
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := testing.AllocsPerRun(200, func() {
		pl, _, err := eng.Plan(other)
		if err != nil {
			t.Fatal(err)
		}
		p = pl
	})
	if st := eng.CacheStats(); st.Misses != base.Misses {
		t.Fatalf("a template sibling must hit: %+v -> %+v", base, st)
	}
	if !strings.Contains(p.String(), `"Soho"`) {
		t.Fatalf("the hit must be rebound to the query's constants:\n%s", p)
	}
	t.Logf("template hit with new constants: %.0f allocations", allocs)
	if allocs > 12 {
		t.Fatalf("a template hit allocates %.0f times, want <= 12", allocs)
	}
}
