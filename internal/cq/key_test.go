package cq

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/value"
)

func keyQ0() *CQ {
	return &CQ{
		Label: "Q0", Free: []string{"xa"},
		Atoms: []Atom{
			NewAtom("Accident", Var("aid"), Const(value.NewString("Queen's Park")), Const(value.NewString("1/5/2005"))),
			NewAtom("Casualty", Var("cid"), Var("aid"), Var("class"), Var("vid")),
			NewAtom("Vehicle", Var("vid"), Var("dri"), Var("xa")),
		},
	}
}

func TestCanonicalKeyIgnoresLabel(t *testing.T) {
	a, b := keyQ0(), keyQ0()
	b.Label = "Renamed"
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Error("label must not affect the canonical key")
	}
}

func TestCanonicalKeyInvariantUnderBoundRenaming(t *testing.T) {
	a := keyQ0()
	b := keyQ0().Substitute(map[string]Term{
		"aid": Var("accident"), "cid": Var("cas"), "class": Var("cl"),
		"vid": Var("vehicle"), "dri": Var("driver"),
	})
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Errorf("α-renamed bound variables must share a key:\n%s\n%s",
			a.CanonicalKey(), b.CanonicalKey())
	}
}

func TestCanonicalKeyKeepsFreeNames(t *testing.T) {
	a := keyQ0()
	b := keyQ0().Substitute(map[string]Term{"xa": Var("age")})
	if a.CanonicalKey() == b.CanonicalKey() {
		t.Error("renaming a free variable must change the key (output columns differ)")
	}
}

func TestCanonicalKeyInvariantUnderAtomAndEqOrder(t *testing.T) {
	a := &CQ{Free: []string{"x"},
		Atoms: []Atom{
			NewAtom("Accident", Var("a"), Var("d"), Var("t")),
			NewAtom("Casualty", Var("c"), Var("a"), Var("k"), Var("x")),
		},
		Eqs: []Eq{
			{L: Var("t"), R: Const(value.NewString("1/5/2005"))},
			{L: Var("d"), R: Const(value.NewString("Soho"))},
		}}
	b := &CQ{Free: []string{"x"},
		Atoms: []Atom{
			NewAtom("Casualty", Var("c"), Var("a"), Var("k"), Var("x")),
			NewAtom("Accident", Var("a"), Var("d"), Var("t")),
		},
		Eqs: []Eq{
			{L: Const(value.NewString("Soho")), R: Var("d")}, // flipped orientation
			{L: Var("t"), R: Const(value.NewString("1/5/2005"))},
		}}
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Errorf("atom/eq reorder must not change the key:\n%s\n%s",
			a.CanonicalKey(), b.CanonicalKey())
	}
}

func TestCanonicalKeySharedAcrossConstants(t *testing.T) {
	// Q0 for another district is the same template: one key, and the
	// params carry the constants hole by hole.
	a := keyQ0()
	b := keyQ0()
	b.Atoms[0].Args[1] = Const(value.NewString("Soho"))
	ka, pa := a.KeyParams()
	kb, pb := b.KeyParams()
	if ka != kb {
		t.Fatalf("queries differing only in constants must share a key:\n%s\n%s", ka, kb)
	}
	if slices.Equal(pa, pb) {
		t.Fatalf("their params must differ: %v", pa)
	}
	want := []value.Value{value.NewString("Soho"), value.NewString("1/5/2005")}
	if !slices.Equal(pb, want) {
		t.Fatalf("params = %v, want %v", pb, want)
	}
	if strings.Contains(ka, "Queen") || !strings.Contains(ka, "$0:string") {
		t.Fatalf("constants must be typed holes in the key: %s", ka)
	}
}

func TestCanonicalKeySeparatesCollidingConstants(t *testing.T) {
	// Equal constants share one hole, so a query whose two constants
	// collide is another template than one whose constants differ.
	a := keyQ0()
	b := keyQ0()
	b.Atoms[0].Args[1] = Const(value.NewString("1/5/2005"))
	kb, pb := b.KeyParams()
	if a.CanonicalKey() == kb {
		t.Errorf("colliding constants must change the key: %s", kb)
	}
	if len(pb) != 1 {
		t.Errorf("colliding constants must share one hole: params %v", pb)
	}
	// A hole keeps its constant's kind: 1 and "1" are different templates.
	i := &CQ{Free: []string{"y"}, Atoms: []Atom{NewAtom("R", Const(value.NewInt(1)), Var("y"))}}
	s := &CQ{Free: []string{"y"}, Atoms: []Atom{NewAtom("R", Const(value.NewString("1")), Var("y"))}}
	if i.CanonicalKey() == s.CanonicalKey() {
		t.Errorf("1 and \"1\" must not share a key: %s", i.CanonicalKey())
	}
}

func TestCanonicalKeySeparatesRepeatedVars(t *testing.T) {
	// R(x, y) vs R(x, x): distinct shapes, distinct keys.
	a := &CQ{Free: []string{"x"}, Atoms: []Atom{NewAtom("R", Var("x"), Var("y"))}}
	b := &CQ{Free: []string{"x"}, Atoms: []Atom{NewAtom("R", Var("x"), Var("x"))}}
	if a.CanonicalKey() == b.CanonicalKey() {
		t.Error("R(x,y) and R(x,x) must differ")
	}
}

func TestCanonicalKeyNormalizesInlineConstants(t *testing.T) {
	// Constants written inline and hoisted into equality atoms are the
	// same query shape after Normalize, so they share a key.
	a := &CQ{Free: []string{"y"},
		Atoms: []Atom{NewAtom("R", Const(value.NewInt(7)), Var("y"))}}
	b := &CQ{Free: []string{"y"},
		Atoms: []Atom{NewAtom("R", Var("w"), Var("y"))},
		Eqs:   []Eq{{L: Var("w"), R: Const(value.NewInt(7))}}}
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Errorf("inline vs hoisted constant must share a key:\n%s\n%s",
			a.CanonicalKey(), b.CanonicalKey())
	}
}

func TestCanonicalKeyDeduplicatesAtoms(t *testing.T) {
	a := &CQ{Free: []string{"x"}, Atoms: []Atom{
		NewAtom("R", Var("x"), Var("y")),
		NewAtom("R", Var("x"), Var("y")),
	}}
	b := &CQ{Free: []string{"x"}, Atoms: []Atom{NewAtom("R", Var("x"), Var("y"))}}
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Error("duplicate atoms must not change the key")
	}
}

// BenchmarkCanonicalKeyQ0 pins the per-request cost of the plan-cache
// key on the Example 1.1 query.
func BenchmarkCanonicalKeyQ0(b *testing.B) {
	q := keyQ0()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = q.KeyParams()
	}
}
