package plan

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Bound is a static worst-case analysis of a plan: how much data it can
// fetch and how large its tables can grow, on ANY instance satisfying the
// access schema. For constant-cardinality constraints the bound depends
// only on Q and A — this is precisely what makes the plan boundedly
// evaluable. General-form constraints R(X -> Y, s(·)) evaluate s at the
// SizeHint, so the bound is a function of |D| but still sublinear.
//
// The analysis tracks, per column of each step, a bound on the number of
// distinct candidate values that can flow through it (a literal's row
// count, |X-bound|·N for fetched columns). Table bounds take the minimum
// of the operational bound (input rows × fetched tuples for a fetch,
// carry-through for π, sum for ∪) and the product of the column bounds —
// this reproduces the paper's Example 1.1 arithmetic (610 + 610·192·2,
// plus 610·1 for the check that carries the district) instead of the
// naive exponential join blow-up.
type Bound struct {
	// Fetched bounds the total tuples retrieved via indices (|D_Q|).
	Fetched int64
	// Output bounds the final table size.
	Output int64
	// PerStep bounds each step's output size.
	PerStep []int64
	// SizeHint is the |D| used for general-form cardinalities (0 = n/a).
	SizeHint int
}

func (b Bound) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "access bound: ≤ %d tuples fetched, ≤ %d answers", b.Fetched, b.Output)
	if b.SizeHint > 0 {
		fmt.Fprintf(&sb, " (at |D| = %d)", b.SizeHint)
	}
	return sb.String()
}

const boundCap = math.MaxInt64 / 4

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > boundCap/b {
		return boundCap
	}
	return a * b
}

func satAdd(a, b int64) int64 {
	if a > boundCap-b {
		return boundCap
	}
	return a + b
}

func satMin(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// AccessBound computes the static bound for p. sizeHint is only consulted
// by general-form constraints; pass 0 when all constraints are constant.
func AccessBound(p *Plan, sizeHint int) (Bound, error) {
	if err := p.Validate(); err != nil {
		return Bound{}, err
	}
	bounds := make([]int64, len(p.Steps))
	cols := make([][]string, len(p.Steps))
	// colBounds[i][j] bounds the distinct values column cols[i][j] carries.
	// The bounds flow along the plan's edges, so the sub-plans of a UCQ,
	// which reuse column names for unrelated classes, stay apart.
	colBounds := make([][]int64, len(p.Steps))
	colOf := func(step int, name string) int64 {
		for j, c := range cols[step] {
			if c == name {
				return colBounds[step][j]
			}
		}
		return boundCap
	}
	colProduct := func(step int, names []string) int64 {
		out := int64(1)
		for k, n := range names {
			if !slices.Contains(names[:k], n) {
				out = satMul(out, colOf(step, n))
			}
		}
		return out
	}

	var fetched int64
	for i, op := range p.Steps {
		switch o := op.(type) {
		case ConstOp:
			n := int64(len(o.Rows))
			bounds[i], cols[i] = n, o.Cols
			colBounds[i] = slices.Repeat([]int64{n}, len(o.Cols))
		case FetchOp:
			// The fetch's X-keys, each fetching at most N tuples, and the
			// input rows each extended by at most all of them.
			n := int64(o.Constraint.Card.Bound(sizeHint))
			out := satMul(satMin(bounds[o.Input], colProduct(o.Input, o.XCols)), n)
			fetched = satAdd(fetched, out)
			cols[i] = o.appendOutCols(nil, cols[o.Input])
			colBounds[i] = append([]int64(nil), colBounds[o.Input]...)
			for j, c := range cols[o.Input] {
				if slices.Contains(o.YOut, c) {
					colBounds[i][j] = satMin(colBounds[i][j], out)
				}
			}
			for range cols[i][len(cols[o.Input]):] {
				colBounds[i] = append(colBounds[i], out)
			}
			bounds[i] = satMin(satMul(bounds[o.Input], out), colProduct(i, cols[i]))
		case ProjectOp:
			bounds[i] = satMin(bounds[o.Input], colProduct(o.Input, o.Cols))
			cols[i] = append([]string(nil), o.Cols...)
			if o.As != nil {
				cols[i] = append([]string(nil), o.As...)
			}
			colBounds[i] = make([]int64, len(o.Cols))
			for j, c := range o.Cols {
				colBounds[i][j] = colOf(o.Input, c)
			}
		case UnionOp:
			bounds[i], cols[i] = satAdd(bounds[o.L], bounds[o.R]), cols[o.L]
			colBounds[i] = append([]int64(nil), colBounds[o.L]...)
			for j := range colBounds[i] {
				if j < len(colBounds[o.R]) {
					colBounds[i][j] = satAdd(colBounds[i][j], colBounds[o.R][j])
				}
			}
		default:
			return Bound{}, fmt.Errorf("plan: bound: unknown operation %T", op)
		}
	}
	return Bound{
		Fetched:  fetched,
		Output:   bounds[len(bounds)-1],
		PerStep:  bounds,
		SizeHint: sizeHint,
	}, nil
}
