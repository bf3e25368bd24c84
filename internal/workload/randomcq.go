package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cq"
	"repro/internal/schema"
)

// RandomCQConfig controls the random conjunctive-query generator used by
// the E4 experiment (the "77% of CQs are boundedly evaluable under 84
// constraints" claim of the Introduction).
type RandomCQConfig struct {
	// Queries to generate.
	Queries int
	// MaxAtoms per query (≥ 1).
	MaxAtoms int
	// StartProb is the probability that a query is "anchored": its first
	// atom receives a constant on an attribute that some access constraint
	// can key on. Personalized/parameterized workloads are mostly
	// anchored, which is what drives the paper's high coverage rates.
	StartProb float64
	// FreeVars caps the number of free variables.
	FreeVars int
	Seed     int64
}

// RandomCQs generates random join queries over the given schema. Each
// query joins a chain of atoms through shared variables; anchored queries
// pin one attribute of the first atom to a constant drawn from consts.
// Generated queries are always safe and validated.
func RandomCQs(s *schema.Schema, cfg RandomCQConfig, consts map[schema.Attribute][]cq.Term) ([]*cq.CQ, error) {
	rels := s.Relations()
	if len(rels) == 0 {
		return nil, fmt.Errorf("workload: empty schema")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []*cq.CQ
	for qi := 0; qi < cfg.Queries; qi++ {
		nAtoms := 1 + rng.Intn(cfg.MaxAtoms)
		q := &cq.CQ{Label: fmt.Sprintf("rq%d", qi)}
		varCount := 0
		freshVar := func() string {
			varCount++
			return fmt.Sprintf("v%d_%d", qi, varCount)
		}
		// Build a chain: each atom shares one variable with the previous.
		var lastVar string
		for ai := 0; ai < nAtoms; ai++ {
			rel := rels[rng.Intn(len(rels))]
			args := make([]cq.Term, rel.Arity())
			sharePos := -1
			if lastVar != "" {
				sharePos = rng.Intn(rel.Arity())
			}
			for p := 0; p < rel.Arity(); p++ {
				if p == sharePos {
					args[p] = cq.Var(lastVar)
					continue
				}
				args[p] = cq.Var(freshVar())
			}
			if ai == 0 && rng.Float64() < cfg.StartProb {
				// Anchor: pin one attribute with a known constant.
				p := rng.Intn(rel.Arity())
				if cands := consts[rel.Attrs[p]]; len(cands) > 0 {
					args[p] = cands[rng.Intn(len(cands))]
				}
			}
			// Next link variable: one of this atom's variable args.
			varArgs := varPositions(args)
			if len(varArgs) > 0 {
				lastVar = args[varArgs[rng.Intn(len(varArgs))]].V
			}
			q.Atoms = append(q.Atoms, cq.Atom{Rel: rel.Name, Args: args})
		}
		// Free variables: drawn from variables that actually occur in atoms
		// (anchoring may have replaced candidates with constants).
		var allVars []string
		for v := range q.AtomVars() {
			allVars = append(allVars, v)
		}
		sort.Strings(allVars)
		nFree := 1 + rng.Intn(cfg.FreeVars)
		for f := 0; f < nFree && f < len(allVars); f++ {
			q.Free = append(q.Free, allVars[rng.Intn(len(allVars))])
		}
		q.Free = dedupStrings(q.Free)
		if err := q.Validate(s); err != nil {
			return nil, fmt.Errorf("workload: generated invalid query: %w", err)
		}
		out = append(out, q)
	}
	return out, nil
}

func varPositions(args []cq.Term) []int {
	var out []int
	for i, t := range args {
		if t.IsVar() {
			out = append(out, i)
		}
	}
	return out
}

func dedupStrings(xs []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
