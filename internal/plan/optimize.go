package plan

// Optimize returns an equivalent plan with dead steps removed: any step
// whose result is never consumed by a later step and is not the final
// answer is dropped, and step indices are compacted. The builder can
// leave such steps behind (e.g. projections prepared for an application
// that turned out to add no new column), and UCQ splicing concatenates
// whole sub-plans whose tails become intermediate.
//
// Optimization never changes the answer: only unreferenced steps go, and
// every surviving operation keeps its operands (renumbered).
func Optimize(p *Plan) *Plan {
	n := len(p.Steps)
	if n == 0 {
		return p
	}
	live := make([]bool, n)
	live[n-1] = true
	for i := n - 1; i >= 0; i-- {
		if !live[i] {
			continue
		}
		in, k := p.Steps[i].inputs()
		for _, j := range in[:k] {
			live[j] = true
		}
	}
	remap := make([]int, n)
	out := &Plan{Label: p.Label, OutCols: append([]string(nil), p.OutCols...)}
	for i := 0; i < n; i++ {
		if !live[i] {
			remap[i] = -1
			continue
		}
		remap[i] = len(out.Steps)
		out.Steps = append(out.Steps, renumberOp(p.Steps[i], remap))
	}
	return out
}

// renumberOp rewrites an op's input references through remap. All inputs
// of a live op are live, so remap is always valid here.
func renumberOp(op Op, remap []int) Op {
	switch o := op.(type) {
	case FetchOp:
		o.Input = remap[o.Input]
		return o
	case ProjectOp:
		o.Input = remap[o.Input]
		return o
	case SelectOp:
		o.Input = remap[o.Input]
		return o
	case ProductOp:
		o.L, o.R = remap[o.L], remap[o.R]
		return o
	case JoinOp:
		o.L, o.R = remap[o.L], remap[o.R]
		return o
	case UnionOp:
		o.L, o.R = remap[o.L], remap[o.R]
		return o
	case DiffOp:
		o.L, o.R = remap[o.L], remap[o.R]
		return o
	case RenameOp:
		o.Input = remap[o.Input]
		return o
	default:
		return op
	}
}
