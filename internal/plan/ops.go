package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/access"
	"repro/internal/schema"
	"repro/internal/value"
)

// Op is one plan operation δ_i. Inputs reference earlier steps by index
// (the paper's T_j with j < i).
type Op interface {
	// String renders the operation in the paper's notation.
	String() string
	// inputs lists the referenced step indices: in[:n]. A fixed array, so
	// validating a plan on every execution allocates nothing.
	inputs() (in [2]int, n int)
}

// ConstOp is a literal table: Rows over Cols, and every plan's one leaf.
// A built plan starts from its seed, one row holding the query's
// constants with a column per pinned class ({()} when there is none), so
// rebinding a plan to other constants rewrites that row alone (Bind).
// With no rows it is the plan of an A-unsatisfiable query ("a query plan
// for empty query suffices", Example 3.1(2)).
type ConstOp struct {
	Cols []string
	Rows [][]value.Value
}

func (o ConstOp) String() string {
	switch {
	case len(o.Rows) == 0:
		return fmt.Sprintf("∅(%s)", strings.Join(o.Cols, ", "))
	case len(o.Cols) == 0:
		return "{()}"
	}
	rows := make([]string, len(o.Rows))
	for i, row := range o.Rows {
		vs := make([]string, len(row))
		for j, v := range row {
			vs[j] = v.String()
		}
		rows[i] = "(" + strings.Join(vs, ", ") + ")"
	}
	return fmt.Sprintf("{%s} as (%s)", strings.Join(rows, ", "), strings.Join(o.Cols, ", "))
}
func (o ConstOp) inputs() ([2]int, int) { return [2]int{}, 0 }

// FetchOp is δ = fetch(X ∈ T_j, R, Y) fused with the σ∘× that joins the
// fetched XY-tuples back to T_j, the form every fetch of a built plan
// takes: each input row is extended with each Y-projection that the index
// of Constraint holds for the row's X-values. Each distinct X-projection
// is looked up once, however many input rows carry it. The output is the
// input's columns followed by the fresh Y names, its rows the input rows
// in order, each followed by its key's bucket in bucket order.
//
// XCols names the input columns corresponding to Constraint.X, in order.
// YOut names the output column for each attribute of Constraint.Y; when a
// YOut name is an input column or an earlier YOut (the query equates
// them), the fetched value is required to match instead of producing a
// duplicate column. An empty YOut entry drops that attribute. A fetch
// whose YOut names no fresh column is a semijoin: it keeps each input row
// whose key's bucket has a match, once.
//
// Tuple is provenance, set when an earlier fetch on the same atom bound
// XCols: in every input row, column Tuple[a] then holds attribute a of
// one real tuple whose X-values are the row's key. A partitioned source
// may route the key by it (RoutingFetcher). String does not print it.
type FetchOp struct {
	Input      int
	Constraint access.Constraint
	XCols      []string
	YOut       []string
	Tuple      map[schema.Attribute]string
}

func (o FetchOp) String() string {
	return fmt.Sprintf("fetch(%s ∈ T%d, %s, %s)",
		strings.Join(o.XCols, " "), o.Input, o.Constraint.Rel, o.Constraint)
}
func (o FetchOp) inputs() ([2]int, int) { return [2]int{o.Input}, 1 }

// appendOutCols appends the output column list over input columns in to
// dst: in, then the fresh Y names. Column lists are a handful long, so a
// linear scan finds the names already present.
func (o FetchOp) appendOutCols(dst, in []string) []string {
	base := len(dst)
	dst = append(dst, in...)
	for _, y := range o.YOut {
		if y != "" && !slices.Contains(dst[base:], y) {
			dst = append(dst, y)
		}
	}
	return dst
}

// ProjectOp is δ = π_Y(T_j) with optional renaming: output column i is
// input column Cols[i], renamed to As[i] when As is non-nil. Repeats are
// allowed (to materialize heads like Q(x, x)).
type ProjectOp struct {
	Input int
	Cols  []string
	As    []string
}

func (o ProjectOp) String() string {
	cols := o.Cols
	if o.As != nil {
		parts := make([]string, len(o.Cols))
		for i := range o.Cols {
			parts[i] = o.Cols[i] + "→" + o.As[i]
		}
		cols = parts
	}
	return fmt.Sprintf("π[%s](T%d)", strings.Join(cols, ", "), o.Input)
}
func (o ProjectOp) inputs() ([2]int, int) { return [2]int{o.Input}, 1 }

// UnionOp is δ = T_j ∪ T_k. Column counts must agree.
type UnionOp struct {
	L, R int
}

func (o UnionOp) String() string        { return fmt.Sprintf("T%d ∪ T%d", o.L, o.R) }
func (o UnionOp) inputs() ([2]int, int) { return [2]int{o.L, o.R}, 2 }

// Plan is a full query plan ξ(Q,R): an operation sequence whose last step
// is the query answer.
type Plan struct {
	// Label names the query the plan answers.
	Label string
	Steps []Op
	// OutCols documents the final table's column names (the free variables).
	OutCols []string
}

// Validate checks step references are acyclic (strictly backward).
func (p *Plan) Validate() error {
	for i, op := range p.Steps {
		in, n := op.inputs()
		for _, j := range in[:n] {
			if j < 0 || j >= i {
				return fmt.Errorf("plan: step T%d references T%d (must be earlier)", i, j)
			}
		}
	}
	if len(p.Steps) == 0 {
		return fmt.Errorf("plan: empty plan")
	}
	return nil
}

// FetchCount returns the number of fetch operations.
func (p *Plan) FetchCount() int {
	n := 0
	for _, op := range p.Steps {
		if _, ok := op.(FetchOp); ok {
			n++
		}
	}
	return n
}

// String renders the plan as the paper's T1 = δ1, ..., Tn = δn list.
func (p *Plan) String() string {
	var b strings.Builder
	label := p.Label
	if label == "" {
		label = "ξ"
	}
	fmt.Fprintf(&b, "plan %s:\n", label)
	for i, op := range p.Steps {
		fmt.Fprintf(&b, "  T%d = %s\n", i, op)
	}
	fmt.Fprintf(&b, "  answer: T%d(%s)", len(p.Steps)-1, strings.Join(p.OutCols, ", "))
	return b.String()
}

// BoundedlyEvaluable reports whether the plan is boundedly evaluable under
// the access schema embedded in its fetch ops (definition in Section 2):
// every fetch is backed by a constraint (true by construction here) and the
// plan length is at most exponential in the input sizes — we check the much
// stronger practical bound maxLen.
func (p *Plan) BoundedlyEvaluable(maxLen int) bool {
	return len(p.Steps) <= maxLen
}
