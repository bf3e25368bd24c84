package cq

// Property-based tests over randomly generated small conjunctive queries:
// the algebraic laws the containment and minimization machinery must obey.

import (
	"math/rand"
	"testing"
)

// genCQ builds a random small CQ over a binary relation R.
func genCQ(rng *rand.Rand) *CQ {
	nAtoms := 1 + rng.Intn(3)
	nVars := 2 + rng.Intn(3)
	varName := func(i int) string { return string(rune('a' + i)) }
	q := &CQ{Label: "g"}
	for i := 0; i < nAtoms; i++ {
		q.Atoms = append(q.Atoms, NewAtom("R",
			Var(varName(rng.Intn(nVars))), Var(varName(rng.Intn(nVars)))))
	}
	// Free variable: one that occurs in an atom.
	q.Free = []string{q.Atoms[0].Args[rng.Intn(2)].V}
	// Occasionally pin a variable.
	if rng.Intn(3) == 0 {
		q.Eqs = append(q.Eqs, Eq{L: q.Atoms[0].Args[0], R: Const(iv(int64(rng.Intn(2))))})
	}
	return q
}

func TestContainmentReflexive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		q := genCQ(rng)
		if !Contains(q, q) {
			t.Fatalf("containment must be reflexive: %s", q)
		}
	}
}

func TestContainmentTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	checked := 0
	for i := 0; i < 400 && checked < 50; i++ {
		q1, q2, q3 := genCQ(rng), genCQ(rng), genCQ(rng)
		if Contains(q1, q2) && Contains(q2, q3) {
			checked++
			if !Contains(q1, q3) {
				t.Fatalf("transitivity violated:\n%s\n%s\n%s", q1, q2, q3)
			}
		}
	}
	if checked == 0 {
		t.Skip("no chained containments generated")
	}
}

func TestRenameApartPreservesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		q := genCQ(rng)
		r := q.RenameApart("p_")
		if !Equivalent(q, r) {
			t.Fatalf("alpha-renaming must preserve equivalence:\n%s\n%s", q, r)
		}
	}
}

func TestNormalizePreservesCanonicalForm(t *testing.T) {
	// Putting constants into atoms and normalizing must agree with the
	// equality-atom formulation.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		q := genCQ(rng)
		n := q.Normalize()
		if !Equivalent(q, n) {
			t.Fatalf("Normalize must preserve equivalence:\n%s\n%s", q, n)
		}
		if !n.IsNormalized() {
			t.Fatalf("Normalize output not normalized: %s", n)
		}
	}
}

func TestCanonicalDedupStable(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		q := genCQ(rng)
		c1 := q.Canonicalize()
		c2 := q.Canonicalize()
		if c1.Unsat != c2.Unsat || len(c1.Atoms) != len(c2.Atoms) {
			t.Fatalf("Canonicalize must be deterministic: %s", q)
		}
	}
}

func TestContainmentAntisymmetryUpToEquivalence(t *testing.T) {
	// If q1 ⊆ q2 and q2 ⊆ q1 then they are Equivalent (by definition);
	// check Equivalent is consistent with the two one-way checks.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		q1, q2 := genCQ(rng), genCQ(rng)
		both := Contains(q1, q2) && Contains(q2, q1)
		if both != Equivalent(q1, q2) {
			t.Fatalf("Equivalent inconsistent with Contains:\n%s\n%s", q1, q2)
		}
	}
}
