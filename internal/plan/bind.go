package plan

import (
	"slices"

	"repro/internal/value"
)

// Bind returns p with its literal rows rebound through the bijection
// from[i] ↦ to[i]: the plan of the query that differs from p's only in
// those constants. A built plan holds its constants in its seed row and
// nowhere else; planning compares constants only for equality, and the
// static bound never looks at them, so the rebound plan is the one
// synthesis would build for that query and p's Bound holds for it too.
//
// Bind returns p itself when the rebinding changes nothing, and nil
// when a literal holds a value outside from (or from and to differ in
// length): such a plan cannot be rebound. p is never modified.
func Bind(p *Plan, from, to []value.Value) *Plan {
	if len(from) != len(to) {
		return nil
	}
	changed := false
	for _, op := range p.Steps {
		if o, ok := op.(ConstOp); ok {
			for _, row := range o.Rows {
				for _, v := range row {
					i := slices.Index(from, v)
					if i < 0 {
						return nil
					}
					changed = changed || to[i] != v
				}
			}
		}
	}
	if !changed {
		return p
	}
	cp := *p
	cp.Steps = slices.Clone(p.Steps)
	for i, op := range cp.Steps {
		if o, ok := op.(ConstOp); ok && len(o.Rows) > 0 {
			rows := make([][]value.Value, len(o.Rows))
			for r, row := range o.Rows {
				rows[r] = make([]value.Value, len(row))
				for j, v := range row {
					rows[r][j] = to[slices.Index(from, v)]
				}
			}
			o.Rows = rows
			cp.Steps[i] = o
		}
	}
	return &cp
}
