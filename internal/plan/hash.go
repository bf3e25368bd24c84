package plan

import (
	"hash/maphash"
	"math/bits"
	"math/rand/v2"

	"repro/internal/data"
	"repro/internal/value"
)

// Row hashing for the executor's set-semantics dedup is word-wise: an
// int cell is folded in with one 64-bit multiply-mix, a string cell with
// its hash/maphash hash. Both are keyed once per process (hashKey,
// hashSeed), so rows a client writes cannot be chosen to share one probe
// chain. Hashes are only a pre-filter — equality is always confirmed
// element-wise — so a collision costs a compare, never a wrong row, and
// dedup keeps first-occurrence-wins semantics with no key encoded per
// row.

var (
	hashSeed = maphash.MakeSeed()
	hashKey  = rand.Uint64()
)

// hashMul is the mix's odd multiplier, the 64-bit golden ratio.
const hashMul = 0x9e3779b97f4a7c15

// hashCell folds one value into h: the high and low words of the 128-bit
// product of h ^ payload and hashMul, xored.
//
//bevet:hotpath
func hashCell(h uint64, v value.Value) uint64 {
	x := uint64(v.Int())
	if v.Kind() == value.String {
		x = maphash.String(hashSeed, v.Str())
	}
	hi, lo := bits.Mul64(h^x, hashMul)
	return hi ^ lo
}

// hashRow hashes a whole row.
//
//bevet:hotpath
func hashRow(row data.Tuple) uint64 {
	h := hashKey
	for _, v := range row {
		h = hashCell(h, v)
	}
	return h
}

// hashRowAt hashes the projection of row onto positions cols.
//
//bevet:hotpath
func hashRowAt(row data.Tuple, cols []int) uint64 {
	h := hashKey
	for _, c := range cols {
		h = hashCell(h, row[c])
	}
	return h
}

// rowsEqual reports element-wise row equality.
//
//bevet:hotpath
func rowsEqual(a, b data.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rowsEqualAt reports equality of two rows projected onto the same
// positions.
//
//bevet:hotpath
func rowsEqualAt(a, b data.Tuple, cols []int) bool {
	for _, c := range cols {
		if a[c] != b[c] {
			return false
		}
	}
	return true
}

// rowIndex is the executor's one dedup index: an open-addressed set of
// row numbers keyed by row hash. Its slots are a power of two, each
// holding the low 32 bits of a row's hash beside the row number + 1 (0
// marks a free slot); a row's probe starts at its hash's slot and walks
// linearly. It stays at most half full, and it stores no rows: the
// caller's eq confirms a candidate element-wise.
type rowIndex struct {
	slots []rowSlot
	n     int
}

type rowSlot struct {
	hash uint32
	row  int32
}

// reset empties x, keeping its slots.
func (x *rowIndex) reset() {
	if x.n > 0 {
		clear(x.slots)
		x.n = 0
	}
}

// insert looks row i up under hash h in one probe, eq(j) reporting
// whether stored row j equals it: it returns the first equal row and
// true, or records i and returns false. Inserting an equal row is thus
// the lookup; it leaves x unchanged.
//
//bevet:hotpath
func (x *rowIndex) insert(h uint64, i int, eq func(j int) bool) (int, bool) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	mask := uint32(len(x.slots) - 1)
	for p := uint32(h) & mask; ; p = (p + 1) & mask {
		switch s := x.slots[p]; {
		case s.row == 0:
			x.slots[p] = rowSlot{uint32(h), int32(i + 1)}
			x.n++
			return 0, false
		case s.hash == uint32(h) && eq(int(s.row-1)):
			return int(s.row - 1), true
		}
	}
}

// grow doubles the slots and re-places every entry by its stored hash.
// The first 32 slots, 256 bytes, index 16 rows, about a point query's
// answer. Kept out of the hot-path annotations: it allocates, once per
// doubling.
func (x *rowIndex) grow() {
	old := x.slots
	x.slots = make([]rowSlot, max(2*len(old), 32))
	mask := uint32(len(x.slots) - 1)
	for _, s := range old {
		if s.row == 0 {
			continue
		}
		p := s.hash & mask
		for x.slots[p].row != 0 {
			p = (p + 1) & mask
		}
		x.slots[p] = s
	}
}

// argDedup deduplicates input rows of a fetch on their X-columns: row i
// is "seen" when an earlier row projects to the same X-values. It is the
// distinct-key pass that keeps FetchKeys at the number of distinct keys
// regardless of input duplication, without encoding a key per row, and
// that names each row's key by its first row, so the emit pass finds the
// row's bucket without hashing it again. One lives in each pooled
// execution state and is reset per fetch step.
type argDedup struct {
	rows  []data.Tuple
	cols  []int
	index rowIndex
}

// reset prepares d for the rows of one fetch step, keeping its slots.
func (d *argDedup) reset(rows []data.Tuple, cols []int) {
	d.rows, d.cols = rows, cols
	d.index.reset()
}

// seen checks-and-records row i, whose X-projection hashes to h; it
// reports whether an earlier row already covered that projection and, if
// so, the first such row.
//
//bevet:hotpath
func (d *argDedup) seen(h uint64, i int) (int, bool) {
	return d.index.insert(h, i, func(j int) bool { return rowsEqualAt(d.rows[j], d.rows[i], d.cols) })
}
