// Package data implements database instances: named relation instances
// holding tuples of values, with set semantics.
//
// An Instance is the "big dataset D" of the paper. Its size |D| is the total
// number of tuples. Relations enforce set semantics (duplicate tuples are
// ignored on insert), matching the paper's set-based query semantics.
//
// Storage is columnar: a Relation keeps one typed array pair (kind byte +
// 64-bit payload) per attribute instead of a []Tuple of boxed values, with
// string payloads dictionary-interned per relation. A row is addressed by
// its dense index — the tuple handle — and materialized into caller-owned
// buffers (AppendRow) or encoded straight into key scratch
// (AppendRowKey/AppendKeyAt), so scans and index builds touch no per-row
// heap memory. Insertion order is the row order, exactly as the old
// row-store kept it, so every downstream ordering guarantee (golden files,
// checkpoint layout) is unchanged.
package data

import (
	"fmt"

	"repro/internal/schema"
	"repro/internal/value"
)

// Tuple is one row of a relation instance.
type Tuple []value.Value

// Key returns the injective encoding of the whole tuple.
func (t Tuple) Key() value.Key { return value.KeyOf(t...) }

// Equal reports element-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of t.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// dict interns the string payloads of one relation: each distinct string
// gets a dense uint32 id, so a string cell is one int64 in its column.
// Ids are append-only; deleting the last row holding a string leaves its
// entry behind (bounded by the historical distinct-string count, and
// dropped entirely on the next bulk load/restore).
type dict struct {
	ids  map[string]uint32
	strs []string
}

func newDict() *dict { return &dict{ids: make(map[string]uint32)} }

func (d *dict) intern(s string) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := uint32(len(d.strs))
	d.strs = append(d.strs, s)
	d.ids[s] = id
	return id
}

func (d *dict) clone() *dict {
	cp := &dict{
		ids:  make(map[string]uint32, len(d.ids)),
		strs: append([]string(nil), d.strs...),
	}
	for s, id := range d.ids {
		cp.ids[s] = id
	}
	return cp
}

// column is one attribute's cells: the value kind per row plus a 64-bit
// payload (the integer itself, or the dict id of a string; 0 for null).
type column struct {
	kinds []uint8
	nums  []int64
}

// cellRep is one cell translated to its columnar representation — used to
// prefilter delete scans with integer compares instead of value equality.
type cellRep struct {
	kind uint8
	num  int64
}

// Relation is an instance of a relation schema: a set of tuples in
// columnar layout.
type Relation struct {
	Schema schema.Relation

	dict *dict
	cols []column
	n    int

	// seen is the set-semantics dedup index (tuple key -> present). It is
	// nil on a relation whose writer released it (ReleaseDedup after a
	// bulk load or recovery — read-mostly relations then carry no O(|R|)
	// map); the first mutation rebuilds it in one scan. Readers never
	// touch it except Contains, which falls back to a columnar scan when
	// it is nil so concurrent reads stay mutation-free.
	seen map[value.Key]bool

	// keyBuf is writer-only key-encoding scratch. The copy-on-write
	// discipline (mutate only unpublished clones) makes a single buffer
	// safe: reads of a published relation never use it.
	keyBuf []byte
}

// NewRelation returns an empty instance of rs.
func NewRelation(rs schema.Relation) *Relation {
	return &Relation{
		Schema: rs,
		dict:   newDict(),
		cols:   make([]column, rs.Arity()),
		seen:   make(map[value.Key]bool),
	}
}

// ensureSeen rebuilds the dedup index after a ReleaseDedup, once, before
// the first mutation. Writer-only. All row keys are encoded into one
// arena and the map keys sliced out of it, so the rebuild costs a
// handful of allocations rather than one string per tuple — it runs on
// the first mutation after recovery, where the relation can be large.
func (r *Relation) ensureSeen() {
	if r.seen != nil {
		return
	}
	offs := make([]int, r.n+1)
	var buf []byte
	for i := 0; i < r.n; i++ {
		buf = r.AppendRowKey(buf, i)
		offs[i+1] = len(buf)
	}
	s := string(buf)
	m := make(map[value.Key]bool, r.n+r.n/8+16)
	for i := 0; i < r.n; i++ {
		m[value.Key(s[offs[i]:offs[i+1]])] = true
	}
	r.seen = m
}

// appendRow appends t's cells to the columns. The caller has already
// checked arity and set semantics.
func (r *Relation) appendRow(t Tuple) {
	for c := range r.cols {
		col := &r.cols[c]
		v := t[c]
		col.kinds = append(col.kinds, uint8(v.Kind()))
		switch v.Kind() {
		case value.Int:
			col.nums = append(col.nums, v.Int())
		case value.String:
			col.nums = append(col.nums, int64(r.dict.intern(v.Str())))
		default:
			col.nums = append(col.nums, 0)
		}
	}
	r.n++
}

// ValueAt returns the cell at (row, col), reconstructed from the columnar
// representation without touching the heap.
//
//bevet:hotpath
func (r *Relation) ValueAt(row, col int) value.Value {
	c := &r.cols[col]
	switch value.Kind(c.kinds[row]) {
	case value.Int:
		return value.NewInt(c.nums[row])
	case value.String:
		return value.NewString(r.dict.strs[c.nums[row]])
	default:
		return value.Value{}
	}
}

// AppendRow materializes row i into dst (reset to length 0 first) and
// returns it — the scan primitive: callers own the buffer, so iterating a
// relation allocates nothing after the first row.
//
//bevet:hotpath
func (r *Relation) AppendRow(dst Tuple, i int) Tuple {
	dst = dst[:0]
	for c := range r.cols {
		dst = append(dst, r.ValueAt(i, c))
	}
	return dst
}

// RowTuple materializes row i into a fresh Tuple, for callers that retain
// the row past the scan.
func (r *Relation) RowTuple(i int) Tuple {
	return r.AppendRow(make(Tuple, 0, len(r.cols)), i)
}

// Tuples materializes every row as a fresh Tuple. It allocates one tuple
// per row and exists for tests and tooling; hot paths iterate rows with
// AppendRow/ValueAt instead. The result is independent of the relation —
// mutating it cannot corrupt storage (the old row-store accessor returned
// internal state by reference).
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, r.n)
	for i := range out {
		out[i] = r.RowTuple(i)
	}
	return out
}

// AppendRowKey appends the injective key encoding of row i to dst — the
// columnar equivalent of Tuple.Key into caller scratch.
//
//bevet:hotpath
func (r *Relation) AppendRowKey(dst []byte, i int) []byte {
	for c := range r.cols {
		dst = value.AppendValueKey(dst, r.ValueAt(i, c))
	}
	return dst
}

// AppendKeyAt appends the key encoding of row i projected onto cols — the
// index-build primitive (X-keys and Y-projection keys straight from the
// columns).
//
//bevet:hotpath
func (r *Relation) AppendKeyAt(dst []byte, i int, cols []int) []byte {
	for _, c := range cols {
		dst = value.AppendValueKey(dst, r.ValueAt(i, c))
	}
	return dst
}

// Insert adds t under set semantics. It reports whether the tuple was new
// and errors if the arity mismatches the schema.
func (r *Relation) Insert(t Tuple) (bool, error) {
	if len(t) != r.Schema.Arity() {
		return false, fmt.Errorf("data: relation %s expects arity %d, got %d",
			r.Schema.Name, r.Schema.Arity(), len(t))
	}
	r.ensureSeen()
	r.keyBuf = value.AppendKey(r.keyBuf[:0], t...)
	if r.seen[value.Key(r.keyBuf)] {
		return false, nil
	}
	r.seen[value.Key(string(r.keyBuf))] = true
	r.appendRow(t)
	return true, nil
}

// MustInsert inserts values as a tuple and panics on error; for fixtures.
func (r *Relation) MustInsert(vals ...value.Value) {
	if _, err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// encodeCells translates t to columnar cell representations, appending to
// reps. ok is false when some string cell is absent from the dict — then
// no stored row can equal t.
func (r *Relation) encodeCells(t Tuple, reps []cellRep) ([]cellRep, bool) {
	for _, v := range t {
		switch v.Kind() {
		case value.Int:
			reps = append(reps, cellRep{kind: uint8(value.Int), num: v.Int()})
		case value.String:
			id, ok := r.dict.ids[v.Str()]
			if !ok {
				return reps, false
			}
			reps = append(reps, cellRep{kind: uint8(value.String), num: int64(id)})
		default:
			reps = append(reps, cellRep{kind: uint8(v.Kind()), num: 0})
		}
	}
	return reps, true
}

// matchAt reports whether row i equals the encoded cells.
func (r *Relation) matchAt(i int, reps []cellRep) bool {
	for c := range r.cols {
		col := &r.cols[c]
		if col.kinds[i] != reps[c].kind || col.nums[i] != reps[c].num {
			return false
		}
	}
	return true
}

// removeRow deletes row i, shifting later rows down one slot per column.
// Columns are owned by this relation (Clone deep-copies them), so the
// shift never reaches another snapshot.
func (r *Relation) removeRow(i int) {
	for c := range r.cols {
		col := &r.cols[c]
		copy(col.kinds[i:], col.kinds[i+1:])
		col.kinds = col.kinds[:r.n-1]
		copy(col.nums[i:], col.nums[i+1:])
		col.nums = col.nums[:r.n-1]
	}
	r.n--
}

// Delete removes t under set semantics. It reports whether the tuple was
// present and errors if the arity mismatches the schema. Insertion order
// of the remaining tuples is preserved.
func (r *Relation) Delete(t Tuple) (bool, error) {
	if len(t) != r.Schema.Arity() {
		return false, fmt.Errorf("data: relation %s expects arity %d, got %d",
			r.Schema.Name, r.Schema.Arity(), len(t))
	}
	r.ensureSeen()
	r.keyBuf = value.AppendKey(r.keyBuf[:0], t...)
	if !r.seen[value.Key(r.keyBuf)] {
		return false, nil
	}
	delete(r.seen, value.Key(string(r.keyBuf)))
	reps, ok := r.encodeCells(t, make([]cellRep, 0, len(t)))
	if !ok {
		// seen said present, so every string cell is interned; unreachable.
		return false, fmt.Errorf("data: relation %s: dedup index out of sync", r.Schema.Name)
	}
	for i := 0; i < r.n; i++ {
		if r.matchAt(i, reps) {
			r.removeRow(i)
			break
		}
	}
	return true, nil
}

// DeleteBatch removes every listed tuple in one order-preserving
// compaction pass — O(|R| + |ts|) total, against O(|R|) per tuple for
// repeated Delete calls — and returns the tuples that were actually
// present (duplicates in ts count once), for callers that maintain
// derived state such as indices.
func (r *Relation) DeleteBatch(ts []Tuple) ([]Tuple, error) {
	return r.deleteBatch(ts)
}

// DeleteBatchInPlace is DeleteBatch under the columnar layout, where the
// compaction is always within the relation's own column arrays (Clone
// deep-copies them, so no other snapshot can observe the shift). The
// separate name survives for the recovery replay path that relied on the
// old row-store's in-place mode.
func (r *Relation) DeleteBatchInPlace(ts []Tuple) ([]Tuple, error) {
	return r.deleteBatch(ts)
}

func (r *Relation) deleteBatch(ts []Tuple) ([]Tuple, error) {
	for _, t := range ts {
		if len(t) != r.Schema.Arity() {
			return nil, fmt.Errorf("data: relation %s expects arity %d, got %d",
				r.Schema.Name, r.Schema.Arity(), len(t))
		}
	}
	r.ensureSeen()
	doomed := make(map[value.Key]bool, len(ts))
	for _, t := range ts {
		r.keyBuf = value.AppendKey(r.keyBuf[:0], t...)
		if r.seen[value.Key(r.keyBuf)] {
			doomed[value.Key(string(r.keyBuf))] = true
		}
	}
	if len(doomed) == 0 {
		return nil, nil
	}
	// The scan is prefiltered on first cells: a row can only be doomed if
	// its first cell matches some doomed tuple's first cell, and in the
	// columnar layout that is a two-integer compare. Doomed tuples cluster
	// on few distinct first cells (a delta deletes a handful of entities
	// plus their satellite rows), so a small linear probe beats hashing
	// every scanned row; past maxLinearCells it falls back to a map.
	// (Arity-0 relations hold at most one tuple; no prefilter there.)
	const maxLinearCells = 16
	var cells []cellRep
	var cellSet map[cellRep]bool
	if r.Schema.Arity() > 0 {
		for _, t := range ts {
			rep, ok := r.encodeCells(t[:1], nil)
			if !ok {
				continue // first cell not interned: t matches nothing
			}
			c0 := rep[0]
			if cellSet != nil {
				cellSet[c0] = true
				continue
			}
			dup := false
			for _, c := range cells {
				if c == c0 {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			if len(cells) == maxLinearCells {
				cellSet = make(map[cellRep]bool, len(ts))
				for _, c := range cells {
					cellSet[c] = true
				}
				cellSet[c0] = true
				continue
			}
			cells = append(cells, c0)
		}
	}
	var removed []Tuple
	var dead []int
	for i := 0; i < r.n; i++ {
		if len(removed) == len(doomed) {
			break
		}
		if r.Schema.Arity() > 0 {
			c0 := cellRep{kind: r.cols[0].kinds[i], num: r.cols[0].nums[i]}
			hit := false
			if cellSet != nil {
				hit = cellSet[c0]
			} else {
				for _, c := range cells {
					if c == c0 {
						hit = true
						break
					}
				}
			}
			if !hit {
				continue
			}
		}
		r.keyBuf = r.AppendRowKey(r.keyBuf[:0], i)
		if doomed[value.Key(r.keyBuf)] && r.seen[value.Key(r.keyBuf)] {
			delete(r.seen, value.Key(string(r.keyBuf)))
			removed = append(removed, r.RowTuple(i))
			dead = append(dead, i)
		}
	}
	if len(dead) == 0 {
		return nil, nil
	}
	// One order-preserving compaction pass per column: rows move down
	// only, so source cells are always read before they are overwritten.
	w, di := dead[0], 0
	for j := dead[0]; j < r.n; j++ {
		if di < len(dead) && dead[di] == j {
			di++
			continue
		}
		if w != j {
			for c := range r.cols {
				col := &r.cols[c]
				col.kinds[w] = col.kinds[j]
				col.nums[w] = col.nums[j]
			}
		}
		w++
	}
	for c := range r.cols {
		col := &r.cols[c]
		col.kinds = col.kinds[:w]
		col.nums = col.nums[:w]
	}
	r.n = w
	return removed, nil
}

// Clone returns an independent copy of r: mutating the clone (Insert,
// Delete) never affects r, so a clone is the copy-on-write building block
// for snapshot-isolated updates. Columns and the string dictionary are
// deep-copied; the interned string payloads themselves are immutable and
// shared.
func (r *Relation) Clone() *Relation {
	cp := &Relation{
		Schema: r.Schema,
		dict:   r.dict.clone(),
		cols:   make([]column, len(r.cols)),
		n:      r.n,
	}
	for c := range r.cols {
		cp.cols[c] = column{
			kinds: append([]uint8(nil), r.cols[c].kinds...),
			nums:  append([]int64(nil), r.cols[c].nums...),
		}
	}
	if r.seen != nil {
		cp.seen = make(map[value.Key]bool, len(r.seen))
		for k := range r.seen {
			cp.seen[k] = true
		}
	}
	return cp
}

// InstallKeys replaces r's contents wholesale with the tuples whose
// canonical Key encodings are keys, in order. It is the bulk-restore
// entry point for checkpoint recovery: each key's cells are decoded
// straight into the columns — no intermediate []Tuple, no re-encode of
// values the checkpoint already stores encoded. Arity and duplicates are
// still validated (the keys are file bytes), and the validation set
// doubles as the installed dedup index — its keys are substrings of the
// checkpoint payload, so WAL replay right after the restore mutates
// without a rebuild; the recovery driver releases the index once replay
// is done.
func (r *Relation) InstallKeys(keys []value.Key) error {
	arity := r.Schema.Arity()
	// Headroom beyond len(keys): recovery replays WAL deltas straight
	// after the restore, and a map sized exactly to its contents pays a
	// full incremental rehash on the first few inserts.
	seen := make(map[value.Key]bool, len(keys)+len(keys)/8+16)
	d := newDict()
	cols := make([]column, arity)
	for c := range cols {
		cols[c] = column{
			kinds: make([]uint8, len(keys)),
			nums:  make([]int64, len(keys)),
		}
	}
	for i, k := range keys {
		if seen[k] {
			return fmt.Errorf("data: %s: duplicate tuple key %q", r.Schema.Name, string(k))
		}
		seen[k] = true
		dec := value.NewDecoder(string(k))
		for c := 0; c < arity; c++ {
			v := dec.Cell()
			col := &cols[c]
			col.kinds[i] = uint8(v.Kind())
			switch v.Kind() {
			case value.Int:
				col.nums[i] = v.Int()
			case value.String:
				col.nums[i] = int64(d.intern(v.Str()))
			}
		}
		if err := dec.Done(); err != nil {
			return fmt.Errorf("data: %s: tuple %d is not %d cells: %w", r.Schema.Name, i, arity, err)
		}
	}
	r.dict, r.cols, r.n = d, cols, len(keys)
	r.seen = seen
	return nil
}

// ReleaseDedup drops the O(|R|) dedup index of a read-mostly relation —
// called after a bulk load or recovery, when no more writes are staged
// against this version. The next mutation (always on an owned clone or an
// exclusively owned instance) rebuilds it in one scan; reads never need
// it (Contains falls back to a columnar scan).
func (r *Relation) ReleaseDedup() { r.seen = nil }

// Contains reports whether tuple t is present. It is read-only and safe
// for concurrent use on a published relation: with the dedup index
// released it scans the columns instead of rebuilding the map.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.Schema.Arity() {
		return false
	}
	if r.seen != nil {
		var buf [48]byte
		k := value.AppendKey(buf[:0], t...)
		return r.seen[value.Key(k)]
	}
	reps, ok := r.encodeCells(t, make([]cellRep, 0, len(t)))
	if !ok {
		return false
	}
	for i := 0; i < r.n; i++ {
		if r.matchAt(i, reps) {
			return true
		}
	}
	return false
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// Instance is a database instance D of a relational schema R.
type Instance struct {
	Schema *schema.Schema
	rels   map[string]*Relation
}

// NewInstance returns an empty instance of s, with one (empty) relation
// instance per relation schema.
func NewInstance(s *schema.Schema) *Instance {
	ins := &Instance{Schema: s, rels: make(map[string]*Relation)}
	for _, rs := range s.Relations() {
		ins.rels[rs.Name] = NewRelation(rs)
	}
	return ins
}

// Relation returns the instance of the named relation, or nil if the schema
// has no such relation.
func (d *Instance) Relation(name string) *Relation { return d.rels[name] }

// Insert adds a tuple to the named relation.
func (d *Instance) Insert(rel string, vals ...value.Value) error {
	r := d.rels[rel]
	if r == nil {
		return fmt.Errorf("data: instance has no relation %s", rel)
	}
	_, err := r.Insert(Tuple(vals))
	return err
}

// MustInsert is Insert that panics on error; for fixtures and tests.
func (d *Instance) MustInsert(rel string, vals ...value.Value) {
	if err := d.Insert(rel, vals...); err != nil {
		panic(err)
	}
}

// Delete removes a tuple from the named relation.
func (d *Instance) Delete(rel string, vals ...value.Value) error {
	r := d.rels[rel]
	if r == nil {
		return fmt.Errorf("data: instance has no relation %s", rel)
	}
	_, err := r.Delete(Tuple(vals))
	return err
}

// ReleaseDedup drops every relation's dedup index; see
// Relation.ReleaseDedup. Call once after a bulk load or recovery
// completes, before the instance is published.
func (d *Instance) ReleaseDedup() {
	for _, r := range d.rels {
		r.ReleaseDedup()
	}
}

// CloneWith returns a shallow copy of d in which the relations named in
// repls are replaced and every other relation is shared with d. It is the
// instance-level copy-on-write step of a snapshotted update: the original
// instance is left untouched. Every replacement must name a relation of
// the schema and carry the same relation schema.
func (d *Instance) CloneWith(repls map[string]*Relation) (*Instance, error) {
	cp := &Instance{Schema: d.Schema, rels: make(map[string]*Relation, len(d.rels))}
	for name, r := range d.rels {
		cp.rels[name] = r
	}
	for name, r := range repls {
		old := cp.rels[name]
		if old == nil {
			return nil, fmt.Errorf("data: instance has no relation %s", name)
		}
		if r.Schema.Name != old.Schema.Name || r.Schema.Arity() != old.Schema.Arity() {
			return nil, fmt.Errorf("data: replacement for %s has schema %v", name, r.Schema)
		}
		cp.rels[name] = r
	}
	return cp, nil
}

// Size is |D|: the total number of tuples across all relations.
func (d *Instance) Size() int {
	n := 0
	for _, r := range d.rels {
		n += r.Len()
	}
	return n
}
