package cq_test

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/cq"
	"repro/internal/parser"
	"repro/internal/ucq"
	"repro/internal/value"
)

// FuzzCanonicalKey parses arbitrary documents and checks every parsed
// query's template key:
//
//  1. KeyParams never panics, on a CQ or on a union.
//  2. There is one param per distinct constant.
//  3. The key and params are invariant under renaming bound variables.
//  4. Under an injective, kind-preserving renaming of the constants the
//     key is unchanged and each hole holds its constant's image.
//  5. Merging two distinct constants of one kind changes the key.
func FuzzCanonicalKey(f *testing.F) {
	f.Add(`
relation Accident(aid, district, date)
relation Vehicle(vid, driver, age)
constraint Accident(date -> aid, 610)
query Q0(xa) :- Accident(aid, "Queen's Park", "1/5/2005"), Vehicle(aid, dri, xa).
query Q1(xa) :- Accident(aid, d, t), Vehicle(aid, dri, xa), t = "1/5/2005", d = "1/5/2005".
`)
	f.Add("relation R(A, B)\nquery Q(x) :- R(x, y), x = 3, y = \"3\", y = 4.")
	f.Add("relation R(A, B)\nquery QU(x) :- R(x, 1).\nquery QU(z) :- R(z, z), z = 1.")
	f.Add("relation R(A, B)\nquery QD(x) :- R(x, y), (R(x, \"a\") | R(\"b\", x)).")
	f.Add("relation R(A, B, C)\nquery Q(x) :- R(x, y, y), R(y, x, 7), R(y, x, 7), x = x.")
	f.Fuzz(func(t *testing.T, input string) {
		doc, err := parser.Parse(input)
		if err != nil {
			return
		}
		for _, pq := range doc.Queries {
			if u, err := ucq.New(pq.Name, pq.Subs...); err == nil {
				u.KeyParams()
			}
			for _, q := range pq.Subs {
				checkTemplateKey(t, q)
			}
		}
	})
}

func checkTemplateKey(t *testing.T, q *cq.CQ) {
	key, params := q.KeyParams()
	consts := q.Constants()
	if len(params) != len(consts) {
		t.Fatalf("%s: params %v, want one per distinct constant of %v", q, params, consts)
	}

	vars := q.Vars()
	rename := map[string]cq.Term{}
	for i, v := range vars {
		if slices.Contains(q.Free, v) {
			continue
		}
		fresh := "_r" + strconv.Itoa(i)
		if slices.Contains(vars, fresh) {
			return // the fresh name is taken: skip the renaming checks
		}
		rename[v] = cq.Var(fresh)
	}
	if k, p := q.Substitute(rename).KeyParams(); k != key || !slices.Equal(p, params) {
		t.Fatalf("%s: renaming bound variables changed the key:\n%s %v\n%s %v", q, key, params, k, p)
	}

	image := func(v value.Value) value.Value {
		if v.Kind() == value.Int {
			return value.NewInt(^v.Int())
		}
		return value.NewString("κ" + v.Str())
	}
	k, p := mapConstants(q, image).KeyParams()
	if k != key {
		t.Fatalf("%s: an injective, kind-preserving renaming changed the key:\n%s\n%s", q, key, k)
	}
	for i, v := range params {
		if p[i] != image(v) {
			t.Fatalf("%s: hole %d holds %v after renaming, want %v", q, i, p[i], image(v))
		}
	}

	for i, v := range consts {
		for _, w := range consts[:i] {
			if w.Kind() != v.Kind() {
				continue
			}
			merge := func(c value.Value) value.Value {
				if c == v {
					return w
				}
				return c
			}
			if mapConstants(q, merge).CanonicalKey() == key {
				t.Fatalf("%s: merging %v into %v kept the key %s", q, v, w, key)
			}
			return
		}
	}
}

// mapConstants returns q with every constant c replaced by f(c).
func mapConstants(q *cq.CQ, f func(value.Value) value.Value) *cq.CQ {
	out := q.Clone()
	term := func(t cq.Term) cq.Term {
		if t.IsVar() {
			return t
		}
		return cq.Const(f(t.C))
	}
	for _, a := range out.Atoms {
		for j, t := range a.Args {
			a.Args[j] = term(t)
		}
	}
	for i, e := range out.Eqs {
		out.Eqs[i] = cq.Eq{L: term(e.L), R: term(e.R)}
	}
	return out
}
