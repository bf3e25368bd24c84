package plan

import (
	"testing"

	"repro/internal/data"
	"repro/internal/value"
)

// Tests of the executor's row index (rowIndex): rows that collide on
// their hash are told apart by the element-wise compare alone. The
// forced hashes below keep the slot bits all ones, so every probe starts
// at the last slot and wraps round to the first.

// TestRowIndexCollisionPath inserts distinct rows under one forced hash:
// each insert walks the whole probe chain, so only the compare keeps
// them apart. Every row is kept, in first-occurrence order; an equal row
// is refused; and after the index has doubled three times every entry
// is still found at its own row.
func TestRowIndexCollisionPath(t *testing.T) {
	const h = ^uint64(0)
	var tab Table
	var rows []data.Tuple
	for i := int64(0); i < 70; i++ {
		row := data.Tuple{iv(i % 10), sv(string(rune('a' + i/10)))}
		rows = append(rows, row)
		if !tab.insert(h, row) {
			t.Fatalf("distinct row %v refused", row)
		}
		tab.Rows = append(tab.Rows, row)
	}
	assertRows(t, "kept rows", tab.Rows, rows)
	if got, want := len(tab.index.slots), 32<<3; got != want {
		t.Fatalf("index has %d slots, want %d: the fixture must double it three times", got, want)
	}
	for i, row := range rows {
		if tab.insert(h, row.Clone()) {
			t.Fatalf("row %d %v admitted twice", i, row)
		}
		j, found := tab.index.insert(h, len(rows), func(j int) bool { return rowsEqual(rows[j], row) })
		if !found || j != i {
			t.Fatalf("row %d found at %d (found %v)", i, j, found)
		}
	}
	if tab.index.n != len(rows) {
		t.Fatalf("index holds %d entries for %d rows", tab.index.n, len(rows))
	}
}

// TestArgDedupCollisionPath forces one hash on every input row of a
// fetch's key dedup: seen must still name each key by its first row.
func TestArgDedupCollisionPath(t *testing.T) {
	const h = ^uint64(0)
	var rows []data.Tuple
	for i := int64(0); i < 60; i++ {
		rows = append(rows, data.Tuple{iv(i), iv(i % 7)})
	}
	var d argDedup
	d.reset(rows, []int{1})
	for i := range rows {
		j, seen := d.seen(h, i)
		if seen != (i >= 7) || (seen && j != i%7) {
			t.Fatalf("row %d: seen %v at %d, want seen %v at %d", i, seen, j, i >= 7, i%7)
		}
	}
}

// FuzzRowIndex sends fuzzed rows of one to three int and string cells
// through the index with their hash cut to 3 free bits, so probes
// collide and wrap, and checks every insert's answer — new, or the
// first equal row — against a map over value.KeyOf.
func FuzzRowIndex(f *testing.F) {
	f.Add([]byte{0, 3, 1, 4, 0, 3, 2, 2, 'a', 'b', 2, 5, 2, 'a', 'b', 7})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{2, 6, 'x', 'y', 'z', 0, 0, 9, 2, 6, 'x', 'y', 'z', 0, 0, 9})
	f.Fuzz(func(t *testing.T, b []byte) {
		var x rowIndex
		var rows []data.Tuple
		ref := map[value.Key]int{}
		for len(b) > 0 {
			var row data.Tuple
			row, b = fuzzRow(b)
			want, dup := ref[value.KeyOf(row...)]
			got, found := x.insert(hashRow(row)|^uint64(7), len(rows), func(j int) bool { return rowsEqual(rows[j], row) })
			if found != dup || (found && got != want) {
				t.Fatalf("insert %v: (%d, %v), want (%d, %v)", row, got, found, want, dup)
			}
			if !found {
				ref[value.KeyOf(row...)] = len(rows)
				rows = append(rows, row)
			}
		}
		if x.n != len(rows) {
			t.Fatalf("index holds %d entries for %d distinct rows", x.n, len(rows))
		}
	})
}

// fuzzRow decodes one row from the front of b: a byte giving the cell
// count (1 + b%3), then per cell a byte whose low bit picks int or
// string. An int is the rest of that byte; a string is the next
// (byte>>1)%4 bytes.
func fuzzRow(b []byte) (data.Tuple, []byte) {
	n := 1 + int(b[0])%3
	b = b[1:]
	var row data.Tuple
	for ; n > 0 && len(b) > 0; n-- {
		c := b[0]
		b = b[1:]
		if c&1 == 0 {
			row = append(row, iv(int64(c>>1)))
			continue
		}
		l := min(int(c>>1)%4, len(b))
		row = append(row, sv(string(b[:l])))
		b = b[l:]
	}
	return row, b
}
