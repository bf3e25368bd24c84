package plan

import "fmt"

// Language identifies the query class whose plan grammar (Section 2,
// "Boundedly evaluable queries") a plan must conform to:
//
//   - CQ:    each δ is fetch, π, σ, × or ρ;
//   - UCQ:   additionally ∪, but only as the LAST k−1 operations;
//   - ∃FO⁺:  fetch, π, σ, ×, ∪ or ρ anywhere.
//
// A plan here spells σ, × and ρ only inside its fetches: a FetchOp is the
// paper's fetch together with the σ∘× that joins it to its input. So the
// three languages differ only in where ∪ may stand.
type Language int

const (
	LangCQ Language = iota
	LangUCQ
	LangPosFO
)

func (l Language) String() string {
	switch l {
	case LangCQ:
		return "CQ"
	case LangUCQ:
		return "UCQ"
	case LangPosFO:
		return "∃FO⁺"
	default:
		return fmt.Sprintf("language(%d)", int(l))
	}
}

// ConformsTo verifies the plan against the language's operation grammar.
// The literal leaf is allowed everywhere; a FetchOp counts as the paper's
// fetch followed by the σ∘× with its input.
func (p *Plan) ConformsTo(l Language) error {
	lastUnionBlock := len(p.Steps)
	// For UCQ: find where the trailing ∪-block starts.
	for i := len(p.Steps) - 1; i >= 0; i-- {
		if _, ok := p.Steps[i].(UnionOp); ok {
			lastUnionBlock = i
		} else {
			break
		}
	}
	for i, op := range p.Steps {
		switch op.(type) {
		case ConstOp, FetchOp, ProjectOp:
			// Allowed in every language.
		case UnionOp:
			switch l {
			case LangCQ:
				return fmt.Errorf("plan: step T%d is ∪, not allowed in %s plans", i, l)
			case LangUCQ:
				if i < lastUnionBlock {
					return fmt.Errorf("plan: step T%d is ∪ before the trailing union block (UCQ grammar)", i)
				}
			}
		default:
			return fmt.Errorf("plan: step T%d has unknown operation %T", i, op)
		}
	}
	return nil
}
