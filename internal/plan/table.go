// Package plan implements the paper's query plans (Section 2): sequences
// ξ(Q,R): T1 = δ1, ..., Tn = δn of operations over intermediate tables,
// where δ is {a}, fetch(X ∈ Tj, R, Y), π, σ, ×, ∪, − or ρ. It synthesizes
// boundedly evaluable plans from covered queries (Theorem 3.11), executes
// them against indexed instances with precise access accounting, and
// derives the static worst-case access bound that makes a plan "bounded".
package plan

import (
	"fmt"
	"strings"

	"repro/internal/data"
	"repro/internal/value"
)

// Table is an intermediate result T_i: named columns over rows with set
// semantics. Every table the executor fills is duplicate-free, but only a
// step whose shape lets rows repeat pays for it: such a step inserts
// through AddScratch, whose dedup is one open-addressed rowIndex probe —
// a row's word-wise hash finds candidate row numbers verified by
// element-wise comparison, so inserting through a reused scratch buffer
// encodes no per-row keys and allocates nothing for duplicates — and a
// step proven to produce distinct rows appends through appendScratch,
// with no hash and no index (see sink). Either way new rows are carved
// from a chunked arena instead of one allocation each.
type Table struct {
	Cols []string
	Rows []data.Tuple

	// index holds the number of every row inserted through Add or
	// AddScratch. Row equality is always confirmed element-wise, so a
	// hash collision costs a compare, never a wrong answer.
	index rowIndex

	// arena backs rows copied in via AddScratch or appendScratch: rows
	// are carved from chunked slabs, so a million-row table costs
	// hundreds of allocations instead of a million. Committed rows are
	// never moved or reused.
	arena []value.Value
}

// Arena slab sizing (in cells): chunks start small — a bounded query's
// intermediate tables are often a handful of rows, and a fixed big slab
// per table would cost more zeroed memory than the old per-row copies —
// and double per refill up to arenaChunkMax, so large tables still pay
// O(log n) allocations.
const (
	arenaChunkMin = 64
	arenaChunkMax = 4096
)

// retainCells bounds what a pooled execution state keeps of a step
// table: one that stored more cells than a full arena chunk holds is
// dropped instead of pooled, so a wide run does not pin its memory.
const retainCells = arenaChunkMax

// reset empties t for reuse as a step table with columns cols. The row
// slice, row index and current arena chunk keep their storage; the cells
// a previous use wrote are cleared so a pooled table pins no values.
func (t *Table) reset(cols ...string) {
	t.Cols = append(t.Cols[:0], cols...)
	clear(t.Rows)
	t.Rows = t.Rows[:0]
	t.index.reset()
	clear(t.arena)
	t.arena = t.arena[:0]
}

// retainable reports whether t is small enough to stay in a pooled
// execution state (see retainCells).
func (t *Table) retainable() bool {
	return len(t.Rows)*len(t.Cols) <= retainCells && cap(t.arena) <= retainCells
}

// insert indexes row, hashing to h, as the row about to be appended,
// unless an equal row is already stored; it reports whether it was new.
//
//bevet:hotpath
func (t *Table) insert(h uint64, row data.Tuple) bool {
	_, found := t.index.insert(h, len(t.Rows), func(j int) bool { return rowsEqual(t.Rows[j], row) })
	return !found
}

// Add inserts a row under set semantics, reporting whether it was new.
// The row itself is stored — callers passing a buffer they will reuse
// must use AddScratch.
func (t *Table) Add(row data.Tuple) bool {
	if !t.insert(hashRow(row), row) {
		return false
	}
	t.Rows = append(t.Rows, row)
	return true
}

// AddScratch inserts the row currently held in a reused scratch buffer:
// duplicates are detected without copying, and a new row is copied into
// the table's arena. Every executor step whose rows can repeat inserts
// through it, allocating nothing per row.
//
//bevet:hotpath
func (t *Table) AddScratch(row data.Tuple) bool {
	if !t.insert(hashRow(row), row) {
		return false
	}
	t.Rows = append(t.Rows, t.arenaRow(row))
	return true
}

// appendScratch appends the row currently held in a reused scratch
// buffer without a dedup check, copying it into the arena: the insert of
// a step whose rows are distinct by construction. It leaves the row
// index empty, so a table must be filled through AddScratch alone or
// appendScratch alone.
//
//bevet:hotpath
func (t *Table) appendScratch(row data.Tuple) {
	t.Rows = append(t.Rows, t.arenaRow(row))
}

// arenaRow copies row into the arena and returns the stored copy. The
// chunk a row lands in never grows past its capacity, so earlier rows
// are never moved.
//
//bevet:hotpath
func (t *Table) arenaRow(row data.Tuple) data.Tuple {
	if len(row) == 0 {
		return data.Tuple{}
	}
	if len(t.arena)+len(row) > cap(t.arena) {
		n := cap(t.arena) * 2
		if n < arenaChunkMin {
			n = arenaChunkMin
		}
		if n > arenaChunkMax {
			n = arenaChunkMax
		}
		if len(row) > n {
			n = len(row)
		}
		t.arena = make([]value.Value, 0, n)
	}
	base := len(t.arena)
	t.arena = append(t.arena, row...)
	return data.Tuple(t.arena[base : base+len(row) : base+len(row)])
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// appendColIndexes appends the positions of several columns to dst,
// erroring on a missing one.
func (t *Table) appendColIndexes(dst []int, names []string) ([]int, error) {
	for _, n := range names {
		p := t.ColIndex(n)
		if p < 0 {
			return dst, fmt.Errorf("plan: table has no column %q (cols %v)", n, t.Cols)
		}
		dst = append(dst, p)
	}
	return dst, nil
}

// String renders a compact header + row count, for plan traces.
func (t *Table) String() string {
	return fmt.Sprintf("(%s)[%d rows]", strings.Join(t.Cols, ", "), t.Len())
}
