package plan

import (
	"repro/internal/data"
	"repro/internal/value"
)

// Row hashing for the executor's set-semantics dedup: FNV-1a over each
// cell's kind and payload. Hashes are only a pre-filter — equality is
// always confirmed element-wise — so a collision costs a compare, never
// a wrong row. Replacing the old injective-key-encoding dedup
// (map[value.Key]bool, one string allocation per row) with hash+verify
// is what makes the dedup leg of the hot path allocation-free; it keeps
// the exact same first-occurrence-wins semantics because key equality
// and element-wise equality coincide (the key encoding is injective).

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// hashCell folds one value into h.
//
//bevet:hotpath
func hashCell(h uint64, v value.Value) uint64 {
	h ^= uint64(v.Kind())
	h *= fnvPrime64
	switch v.Kind() {
	case value.Int:
		x := uint64(v.Int())
		for s := 0; s < 64; s += 8 {
			h ^= (x >> s) & 0xff
			h *= fnvPrime64
		}
	case value.String:
		s := v.Str()
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= fnvPrime64
		}
	}
	return h
}

// hashRow hashes a whole row.
//
//bevet:hotpath
func hashRow(row data.Tuple) uint64 {
	h := fnvOffset64
	for _, v := range row {
		h = hashCell(h, v)
	}
	return h
}

// hashRowAt hashes the projection of row onto positions cols.
//
//bevet:hotpath
func hashRowAt(row data.Tuple, cols []int) uint64 {
	h := fnvOffset64
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
	first map[uint64]int32
	more  map[uint64][]int32
}

// reset prepares d for the rows of one fetch step, keeping its map storage.
func (d *argDedup) reset(rows []data.Tuple, cols []int) {
	d.rows, d.cols, d.more = rows, cols, nil
	if d.first == nil {
		d.first = make(map[uint64]int32, len(rows))
	} else {
		clear(d.first)
	}
}

// seen checks-and-records row i; it reports whether an earlier row
// already covered its X-projection and, if so, the first such row j.
//
//bevet:hotpath
func (d *argDedup) seen(i int) (j int, ok bool) {
	h := hashRowAt(d.rows[i], d.cols)
	first, ok := d.first[h]
	if !ok {
		d.first[h] = int32(i)
		return 0, false
	}
	if rowsEqualAt(d.rows[first], d.rows[i], d.cols) {
		return int(first), true
	}
	for _, jj := range d.more[h] {
		if rowsEqualAt(d.rows[jj], d.rows[i], d.cols) {
			return int(jj), true
		}
	}
	d.collide(h, int32(i))
	return 0, false
}

// collide records an additional row index under a colliding hash; rare by
// construction, allocates by design.
func (d *argDedup) collide(h uint64, i int32) {
	if d.more == nil {
		d.more = make(map[uint64][]int32)
	}
	d.more[h] = append(d.more[h], i)
}
