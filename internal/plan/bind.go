package plan

import (
	"slices"

	"repro/internal/value"
)

// Bind returns p with its constants rebound through the bijection
// from[i] ↦ to[i]: the plan of the query that differs from p's only in
// those constants. Planning compares constants only for equality, and
// the static bound never looks at them, so the rebound plan is the one
// synthesis would build for that query and p's Bound holds for it too.
//
// Bind returns p itself when the rebinding changes nothing, and nil
// when p holds a constant outside from (or from and to differ in
// length): such a plan cannot be rebound. p is never modified.
func Bind(p *Plan, from, to []value.Value) *Plan {
	if len(from) != len(to) {
		return nil
	}
	changed := false
	bindable := func(v value.Value) bool {
		i := slices.Index(from, v)
		if i >= 0 && to[i] != v {
			changed = true
		}
		return i >= 0
	}
	for _, op := range p.Steps {
		switch o := op.(type) {
		case ConstOp:
			if !bindable(o.Val) {
				return nil
			}
		case SelectOp:
			for _, c := range o.Conds {
				if c.R == "" && !bindable(c.C) {
					return nil
				}
			}
		}
	}
	if !changed {
		return p
	}
	rebind := func(v value.Value) value.Value { return to[slices.Index(from, v)] }
	cp := *p
	cp.Steps = make([]Op, len(p.Steps))
	for i, op := range p.Steps {
		switch o := op.(type) {
		case ConstOp:
			o.Val = rebind(o.Val)
			op = o
		case SelectOp:
			if slices.ContainsFunc(o.Conds, func(c EqCond) bool { return c.R == "" }) {
				o.Conds = slices.Clone(o.Conds)
				for j, c := range o.Conds {
					if c.R == "" {
						o.Conds[j].C = rebind(c.C)
					}
				}
				op = o
			}
		}
		cp.Steps[i] = op
	}
	return &cp
}
