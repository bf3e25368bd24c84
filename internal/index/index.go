// Package index implements the hash indices that back access constraints.
//
// An access constraint R(X -> Y, N) requires "an index on X for Y that,
// given an X-value ā, retrieves D_Y(X = ā)". Index is exactly that: it maps
// each X-value to the set of distinct Y-projections of matching tuples.
//
// Indices support incremental maintenance: Insert and Delete keep the
// buckets exact under tuple-level updates without rebuilding, tracking the
// multiplicity of each (X, Y) pair so a Y-projection disappears only when
// its last witnessing tuple does. Clone produces an independently
// maintainable copy whose mutations never touch the original — the
// building block for snapshot-isolated index versions.
//
// Buckets are flat: one contiguous []value.Value per X-group holding the
// Y-projections back to back (stride = |Y|), addressed through an interned
// slot id instead of a map of boxed tuple slices. Fetches hand out an
// immutable Bucket view over that array — callers read cells (At), encode
// row keys (AppendKeyOf) or fill their own buffers (AppendRow), and cannot
// reach the backing store to corrupt COW-shared snapshot state.
package index

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/data"
	"repro/internal/schema"
	"repro/internal/value"
)

// Bucket is the immutable fetch result D_Y(X = ā): n distinct
// Y-projections of stride cells each, in canonical (key-sorted) order,
// viewed over the index's flat backing array. The zero Bucket is empty.
// Views are valid for the lifetime of the index version they came from;
// the copy-on-write discipline (mutate only unpublished clones) keeps
// published versions frozen.
type Bucket struct {
	vals   []value.Value
	stride int
	n      int
}

// Len returns the number of Y-projections in the bucket.
func (b Bucket) Len() int { return b.n }

// At returns cell j of projection i.
//
//bevet:hotpath
func (b Bucket) At(i, j int) value.Value { return b.vals[i*b.stride+j] }

// AppendKeyOf appends the injective key encoding of projection i to dst.
//
//bevet:hotpath
func (b Bucket) AppendKeyOf(dst []byte, i int) []byte {
	base := i * b.stride
	for j := 0; j < b.stride; j++ {
		dst = value.AppendValueKey(dst, b.vals[base+j])
	}
	return dst
}

// Keys returns the key encodings of the bucket's projections in
// canonical (strictly increasing) order: a bucket's identity, and its
// form in a shard.Group. The keys share one backing string.
func (b Bucket) Keys() []value.Key {
	ends := make([]int, b.n)
	var buf []byte
	for i := range ends {
		buf = b.AppendKeyOf(buf, i)
		ends[i] = len(buf)
	}
	all, keys, start := string(buf), make([]value.Key, b.n), 0
	for i, end := range ends {
		keys[i], start = value.Key(all[start:end]), end
	}
	return keys
}

// AppendRow materializes projection i into dst (reset to length 0 first)
// and returns it, so a fetch loop reuses one caller-owned buffer.
//
//bevet:hotpath
func (b Bucket) AppendRow(dst data.Tuple, i int) data.Tuple {
	dst = dst[:0]
	base := i * b.stride
	for j := 0; j < b.stride; j++ {
		dst = append(dst, b.vals[base+j])
	}
	return dst
}

// Tuples materializes the bucket as freshly allocated tuples — the
// convenience (and test) surface; hot paths iterate with At/AppendRow.
func (b Bucket) Tuples() []data.Tuple {
	out := make([]data.Tuple, b.n)
	for i := range out {
		out[i] = b.AppendRow(make(data.Tuple, 0, b.stride), i)
	}
	return out
}

// MergeBuckets K-way-merges canonically sorted buckets of equal stride,
// deduplicating Y-projections that distinct tuples on different shards
// share. The result is in canonical order with fresh backing —
// byte-identical to the single-node bucket over the union of the shards'
// tuples. It is the cross-shard scatter-gather merge of internal/shard.
func MergeBuckets(parts []Bucket) Bucket {
	if len(parts) == 0 {
		return Bucket{}
	}
	stride := parts[0].stride
	total := 0
	for _, p := range parts {
		total += p.n
	}
	out := Bucket{vals: make([]value.Value, 0, total*stride), stride: stride}
	pos := make([]int, len(parts))
	keys := make([][]byte, len(parts))
	for i, p := range parts {
		if p.n > 0 {
			keys[i] = p.AppendKeyOf(nil, 0)
		}
	}
	for {
		best := -1
		for i, p := range parts {
			if pos[i] >= p.n {
				continue
			}
			if best < 0 || bytes.Compare(keys[i], keys[best]) < 0 {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		bk := keys[best]
		out.vals = append(out.vals, parts[best].vals[pos[best]*stride:(pos[best]+1)*stride]...)
		out.n++
		// Advance every part past bk: within a shard projections are
		// distinct, so at most the head of each part equals it. best
		// advances last — bk aliases its key buffer.
		for i, p := range parts {
			if i == best || pos[i] >= p.n || !bytes.Equal(keys[i], bk) {
				continue
			}
			pos[i]++
			if pos[i] < p.n {
				keys[i] = p.AppendKeyOf(keys[i][:0], pos[i])
			}
		}
		pos[best]++
		if pos[best] < parts[best].n {
			keys[best] = parts[best].AppendKeyOf(keys[best][:0], pos[best])
		}
	}
}

// NewBucket wraps cells — len(cells)/stride Y-projections laid out back
// to back — as an immutable Bucket view. The caller must supply the
// projections already in canonical (key-sorted) order and must not
// mutate cells afterwards; the bucket aliases it. This is the decode
// seam for wire transports (internal/cluster) that decode a remote
// fetch result's cells and need to re-enter the Bucket contract, e.g.
// to feed MergeBuckets.
func NewBucket(cells []value.Value, stride int) Bucket {
	if stride <= 0 || len(cells) == 0 {
		return Bucket{}
	}
	return Bucket{vals: cells, stride: stride, n: len(cells) / stride}
}

// bucket is one X-group's storage slot: n Y-projections of stride cells,
// flattened back to back in vals in canonical order.
type bucket struct {
	vals []value.Value
	n    int
}

// Index is a hash index on attributes X for attributes Y over one relation
// instance. Buckets hold distinct Y-projections (set semantics), so the
// bucket size for key ā is exactly |D_Y(X = ā)| from the paper.
//
// Buckets are kept in canonical order: Y-projections sorted by their
// injective key encoding. This makes fetch results a pure function of the
// SET of tuples in the relation — independent of insertion order, of the
// delete/insert history, and (crucially for internal/shard) of how the
// relation is partitioned: merging the per-shard buckets of a
// hash-partitioned relation in key order reproduces the exact bucket a
// single-node index over the whole relation would serve.
type Index struct {
	Rel  string
	X, Y []schema.Attribute

	xpos, ypos []int
	// ids interns each X-key to its bucket slot. Slots are never reused:
	// deleting a group's last projection removes its ids entry and leaves
	// an empty tombstone slot behind (bounded by the version's historical
	// group count; bulk rebuilds start fresh).
	ids     map[value.Key]uint32
	buckets []bucket
	// counts tracks, per (X, Y) pair, how many relation tuples project to
	// it; a bucket entry is removed when its count reaches zero. The map
	// stores ONLY multiplicities >= 2: a projection present in its bucket
	// with no counts entry has multiplicity 1. Multiplicity 1 is the
	// overwhelmingly common case, so the implicit representation keeps the
	// map (and its per-pair concatenated keys) near-empty — Clone copies
	// almost nothing and checkpoint restore skips the map entirely.
	counts map[value.Key]int
	// owned says which bucket slots this index may mutate in place. nil
	// means all of them (a freshly built index); after a Clone, both
	// sides own nothing and re-copy a bucket's cells on first write, so
	// mutations on either side never reach the other. Slots appended
	// after the clone (>= len(owned)) are owned by construction.
	owned []bool

	// pkBuf/cmpBuf are writer-only key-encoding scratch for Insert and
	// Delete; the copy-on-write discipline keeps them off concurrent
	// read paths.
	pkBuf, cmpBuf []byte
}

// ownsBucket reports whether the bucket in slot may be mutated in place.
func (ix *Index) ownsBucket(slot uint32) bool {
	return ix.owned == nil || int(slot) >= len(ix.owned) || ix.owned[slot]
}

// claimBucket marks the bucket in slot as owned (called after copying it).
func (ix *Index) claimBucket(slot uint32) {
	if ix.owned != nil && int(slot) < len(ix.owned) {
		ix.owned[slot] = true
	}
}

// New constructs an empty index on X for Y over relations shaped like rs.
// Empty X is allowed (the paper's R(∅ -> Y, N) form): all tuples share
// the single empty key.
func New(rs schema.Relation, x, y []schema.Attribute) (*Index, error) {
	xpos, err := rs.Positions(x)
	if err != nil {
		return nil, fmt.Errorf("index: bad X: %w", err)
	}
	ypos, err := rs.Positions(y)
	if err != nil {
		return nil, fmt.Errorf("index: bad Y: %w", err)
	}
	return &Index{
		Rel:    rs.Name,
		X:      append([]schema.Attribute(nil), x...),
		Y:      append([]schema.Attribute(nil), y...),
		xpos:   xpos,
		ypos:   ypos,
		ids:    make(map[value.Key]uint32),
		counts: make(map[value.Key]int),
	}, nil
}

// Grow presizes an EMPTY index for buckets X-groups holding pairs
// distinct (X, Y) pairs in total, so a bulk restore (InstallBucketFlat per
// bucket) fills the structures without incremental rehashing. Go maps
// only take a size hint at make time, hence the replace-while-empty rule;
// on a non-empty index Grow is a no-op rather than an error, since it is
// purely an optimization hint. The counts map is left alone: it holds
// only the (rare) multiplicity >= 2 pairs, so pairs would oversize it.
func (ix *Index) Grow(buckets, pairs int) {
	if len(ix.ids) != 0 {
		return
	}
	ix.ids = make(map[value.Key]uint32, buckets)
	ix.buckets = make([]bucket, 0, buckets)
	_ = pairs
}

// Build constructs the index on X for Y over r. Projections are appended
// to their flat buckets during one columnar scan (duplicates included),
// then each bucket is sorted and compacted once at the end: per-tuple
// sorted insertion would cost O(g) shifts and O(log g) key re-encodings
// per tuple on a group of size g — quadratic in g before an oversized
// group is even rejected by validation — while append-then-sort is
// O(g log g) total.
func Build(r *data.Relation, x, y []schema.Attribute) (*Index, error) {
	idx, err := New(r.Schema, x, y)
	if err != nil {
		return nil, err
	}
	var kbuf []byte
	for i := 0; i < r.Len(); i++ {
		kbuf = r.AppendKeyAt(kbuf[:0], i, idx.xpos)
		slot, ok := idx.ids[value.Key(kbuf)]
		if !ok {
			slot = uint32(len(idx.buckets))
			idx.buckets = append(idx.buckets, bucket{})
			idx.ids[value.Key(string(kbuf))] = slot
		}
		b := &idx.buckets[slot]
		for _, c := range idx.ypos {
			b.vals = append(b.vals, r.ValueAt(i, c))
		}
		b.n++
	}
	idx.finalize()
	return idx, nil
}

// finalize restores the canonical per-bucket order after a bulk
// append-only build, collapsing duplicate (X, Y) pairs into multiplicity
// counts.
func (ix *Index) finalize() {
	stride := len(ix.ypos)
	for k, slot := range ix.ids {
		b := &ix.buckets[slot]
		if stride == 0 {
			// Empty Y: every tuple of the group projects to the empty
			// tuple; the bucket is that single projection with the group's
			// tuple count as its multiplicity.
			if b.n >= 2 {
				ix.counts[pairKey(k, "")] = b.n
			}
			b.n = 1
			continue
		}
		if b.n < 2 {
			continue
		}
		keys := make([]value.Key, b.n)
		for i := range keys {
			keys[i] = value.KeyOf(b.vals[i*stride : (i+1)*stride]...)
		}
		sort.Sort(&flatBucket{vals: b.vals, keys: keys, stride: stride})
		w := 0
		for i := 0; i < b.n; {
			j := i
			for j < b.n && keys[j] == keys[i] {
				j++
			}
			if run := j - i; run >= 2 {
				ix.counts[pairKey(k, keys[i])] = run
			}
			if w != i {
				copy(b.vals[w*stride:(w+1)*stride], b.vals[i*stride:(i+1)*stride])
			}
			w++
			i = j
		}
		b.vals = b.vals[: w*stride : w*stride]
		b.n = w
	}
}

// flatBucket sorts a flat bucket by precomputed projection keys.
type flatBucket struct {
	vals   []value.Value
	keys   []value.Key
	stride int
}

func (s *flatBucket) Len() int           { return len(s.keys) }
func (s *flatBucket) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *flatBucket) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	vi, vj := s.vals[i*s.stride:], s.vals[j*s.stride:]
	for c := 0; c < s.stride; c++ {
		vi[c], vj[c] = vj[c], vi[c]
	}
}

// pairKey is the injective encoding of (X-key, Y-projection-key).
//
// Injectivity holds even though the separator byte 0x00 can occur inside
// an encoded key: valid key encodings of a FIXED arity are prefix-free.
// A key decodes deterministically left to right — each value reads its
// tag byte, then (for ints) one varint or (for strings) one length
// varint plus exactly that many payload bytes — so decoding |X| values
// consumes an unambiguous number of bytes with nothing left over. If
// k1+SEP+p1 == k2+SEP+p2 with |k| covering the same arity X on both
// sides, decoding X values from the equal concatenations consumes the
// same prefix, hence k1 == k2 and (skipping SEP) p1 == p2. Within one
// index every stored k has arity |X| and every pk arity |Y|, so distinct
// (k, pk) pairs never collide — FuzzPairKey in index_test.go asserts
// exactly this. (The separator is redundant given prefix-freeness; it is
// kept because the byte layout reaches the checkpoint-adjacent counts
// map and changing it buys nothing.)
func pairKey(k, pk value.Key) value.Key { return k + "\x00" + pk }

// cmpProj compares projection i of b (encoded into the cmpBuf scratch)
// with the encoded projection key pk.
func (ix *Index) cmpProj(b *bucket, i int, pk []byte) int {
	stride := len(ix.ypos)
	ix.cmpBuf = ix.cmpBuf[:0]
	for j := 0; j < stride; j++ {
		ix.cmpBuf = value.AppendValueKey(ix.cmpBuf, b.vals[i*stride+j])
	}
	return bytes.Compare(ix.cmpBuf, pk)
}

// search finds the canonical position of pk in b: the first index whose
// projection key is >= pk, and whether it is an exact match.
func (ix *Index) search(b *bucket, pk []byte) (int, bool) {
	lo, hi := 0, b.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.cmpProj(b, mid, pk) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < b.n && ix.cmpProj(b, lo, pk) == 0
}

// Insert maintains the index for one inserted tuple, returning the
// tuple's X-key and the bucket size after the insert (so callers can
// check a cardinality bound without scanning all groups). Inserting a
// tuple whose (X, Y) pair is already present only bumps its multiplicity.
// The caller is responsible for set semantics at the relation level:
// Insert assumes t was a fresh relation tuple. The bucket stays in
// canonical (key-sorted) order.
func (ix *Index) Insert(t data.Tuple) (value.Key, int) {
	k := value.KeyOfAt(t, ix.xpos)
	ix.pkBuf = value.AppendKeyAt(ix.pkBuf[:0], t, ix.ypos)
	slot, ok := ix.ids[k]
	if !ok {
		slot = uint32(len(ix.buckets))
		ix.buckets = append(ix.buckets, bucket{})
		ix.ids[k] = slot
	}
	b := &ix.buckets[slot]
	at, found := ix.search(b, ix.pkBuf)
	if found {
		// Pair already present: bump its multiplicity (implicit 1 when
		// absent from counts).
		dk := pairKey(k, value.Key(string(ix.pkBuf)))
		n := ix.counts[dk]
		if n == 0 {
			n = 1
		}
		ix.counts[dk] = n + 1
		return k, b.n
	}
	stride := len(ix.ypos)
	if !ix.ownsBucket(slot) {
		// Copy-on-write: this bucket's backing array is shared with a
		// pre-clone version whose readers still hold it.
		nv := make([]value.Value, len(b.vals), len(b.vals)+stride)
		copy(nv, b.vals)
		b.vals = nv
		ix.claimBucket(slot)
	}
	for j := 0; j < stride; j++ {
		b.vals = append(b.vals, value.Value{})
	}
	copy(b.vals[(at+1)*stride:], b.vals[at*stride:])
	for j := 0; j < stride; j++ {
		b.vals[at*stride+j] = t[ix.ypos[j]]
	}
	b.n++
	return k, b.n
}

// Delete maintains the index for one deleted tuple, returning the tuple's
// X-key and the bucket size after the delete. The Y-projection leaves the
// bucket only when no other relation tuple projects to it. Deleting a
// tuple that was never inserted is a no-op.
func (ix *Index) Delete(t data.Tuple) (value.Key, int) {
	k := value.KeyOfAt(t, ix.xpos)
	slot, ok := ix.ids[k]
	if !ok {
		return k, 0
	}
	ix.pkBuf = value.AppendKeyAt(ix.pkBuf[:0], t, ix.ypos)
	b := &ix.buckets[slot]
	at, found := ix.search(b, ix.pkBuf)
	if !found {
		// Pair was never inserted; deleting it is a no-op.
		return k, b.n
	}
	dk := pairKey(k, value.Key(string(ix.pkBuf)))
	if n, ok := ix.counts[dk]; ok { // multiplicity >= 2
		if n > 2 {
			ix.counts[dk] = n - 1
		} else {
			delete(ix.counts, dk) // back to the implicit 1
		}
		return k, b.n
	}
	// Multiplicity 1: the projection leaves the bucket.
	stride := len(ix.ypos)
	if !ix.ownsBucket(slot) {
		nv := make([]value.Value, len(b.vals)-stride)
		copy(nv, b.vals[:at*stride])
		copy(nv[at*stride:], b.vals[(at+1)*stride:])
		b.vals = nv
		ix.claimBucket(slot)
	} else {
		copy(b.vals[at*stride:], b.vals[(at+1)*stride:])
		b.vals = b.vals[: len(b.vals)-stride : len(b.vals)-stride]
	}
	b.n--
	if b.n == 0 {
		// Tombstone the slot: the group is gone, the slot id is retired.
		delete(ix.ids, k)
		b.vals = nil
		return k, 0
	}
	return k, b.n
}

// Clone returns a copy of ix that can be maintained incrementally while
// readers keep using ix: mutations on either side never reach the other.
// Bucket cell arrays are shared until first write — Clone renounces
// in-place mutation rights on BOTH sides, so each re-copies a bucket the
// first time it changes it.
func (ix *Index) Clone() *Index {
	cp := &Index{
		Rel:     ix.Rel,
		X:       ix.X,
		Y:       ix.Y,
		xpos:    ix.xpos,
		ypos:    ix.ypos,
		ids:     make(map[value.Key]uint32, len(ix.ids)),
		buckets: append([]bucket(nil), ix.buckets...),
		counts:  make(map[value.Key]int, len(ix.counts)),
		owned:   make([]bool, len(ix.buckets)),
	}
	for k, slot := range ix.ids {
		cp.ids[k] = slot
	}
	for dk, n := range ix.counts {
		cp.counts[dk] = n
	}
	ix.owned = make([]bool, len(ix.buckets))
	return cp
}

// Dump visits every bucket in sorted X-key order, with projections in
// canonical order and, aligned with them, each projection's Key and the
// multiplicity of each (X, Y) pair — the complete serializable state of
// the index. It is the checkpoint-writing hook of internal/durable: Dump
// plus InstallBucketFlat round-trips an index exactly, so recovery restores
// buckets verbatim instead of re-running Build's scan-and-sort. The
// projection keys are surfaced so the checkpoint codec can serialize
// tuples AS their keys without re-encoding. It stops at the first error
// f returns. Slices passed to f are shared (the projections view the flat
// bucket storage); f must not mutate or retain them past the call.
func (ix *Index) Dump(f func(k value.Key, projs []data.Tuple, projKeys []value.Key, counts []int) error) error {
	stride := len(ix.ypos)
	counts := make([]int, 0, 16)
	projKeys := make([]value.Key, 0, 16)
	projs := make([]data.Tuple, 0, 16)
	for _, k := range ix.Keys() {
		b := &ix.buckets[ix.ids[k]]
		counts = counts[:0]
		projKeys = projKeys[:0]
		projs = projs[:0]
		for i := 0; i < b.n; i++ {
			proj := data.Tuple(b.vals[i*stride : (i+1)*stride : (i+1)*stride])
			pk := value.KeyOf(proj...)
			projs = append(projs, proj)
			projKeys = append(projKeys, pk)
			n := ix.counts[pairKey(k, pk)]
			if n == 0 {
				n = 1 // implicit multiplicity
			}
			counts = append(counts, n)
		}
		if err := f(k, projs, projKeys, counts); err != nil {
			return err
		}
	}
	return nil
}

// InstallBucketFlat installs one serialized bucket into a fresh index
// (built with New) — the recovery fast path: no per-tuple
// canonical-position search, no end-of-build sort, no projection-key
// re-encode. cells holds the bucket's projections back to back
// (projection i at cells[i*stride : (i+1)*stride]), projKeys their keys
// and counts their multiplicities; all three come from a Dump of the
// index being restored, and projKeys[i] = value.KeyOf(projection i) is
// the caller's contract (the checkpoint codec decodes each projection
// FROM its key, so the correspondence holds by construction). The index
// takes ownership of cells instead of copying it — the checkpoint
// decoder carves all buckets of a section out of one arena, so a restore
// costs one cell allocation per section, not one per bucket. A bucket
// already present, projections out of canonical (strictly ascending
// key) order, a multiplicity below 1, or a cell count other than
// len(projKeys) × stride is refused.
func (ix *Index) InstallBucketFlat(k value.Key, cells []value.Value, projKeys []value.Key, counts []int) error {
	stride := len(ix.ypos)
	if len(projKeys) == 0 || len(projKeys) != len(counts) || len(cells) != len(projKeys)*stride {
		return fmt.Errorf("index: flat bucket of %d cells with %d keys, %d counts (stride %d)", len(cells), len(projKeys), len(counts), stride)
	}
	if _, ok := ix.ids[k]; ok {
		return fmt.Errorf("index: bucket %q installed twice", string(k))
	}
	prev := value.Key("")
	for i, pk := range projKeys {
		if counts[i] < 1 {
			return fmt.Errorf("index: projection multiplicity %d", counts[i])
		}
		if i > 0 && pk <= prev {
			return fmt.Errorf("index: bucket not in canonical order")
		}
		prev = pk
		if counts[i] > 1 {
			ix.counts[pairKey(k, pk)] = counts[i]
		}
	}
	slot := uint32(len(ix.buckets))
	ix.buckets = append(ix.buckets, bucket{vals: cells[:len(cells):len(cells)], n: len(projKeys)})
	ix.ids[k] = slot
	return nil
}

// view builds the immutable fetch view of one storage slot.
//
//bevet:hotpath
func (ix *Index) view(slot uint32) Bucket {
	b := &ix.buckets[slot]
	stride := len(ix.ypos)
	return Bucket{vals: b.vals[: b.n*stride : b.n*stride], stride: stride, n: b.n}
}

// FetchBytes returns the distinct Y-projections D_Y(X = ā) for the
// encoded X-key held in k — the hot-path fetch: the caller encodes keys
// into a reused scratch buffer and the map probe copies nothing.
//
//bevet:hotpath
func (ix *Index) FetchBytes(k []byte) Bucket {
	slot, ok := ix.ids[value.Key(k)]
	if !ok {
		return Bucket{stride: len(ix.ypos)}
	}
	return ix.view(slot)
}

// FetchKey is FetchBytes for a materialized key.
func (ix *Index) FetchKey(k value.Key) Bucket {
	slot, ok := ix.ids[k]
	if !ok {
		return Bucket{stride: len(ix.ypos)}
	}
	return ix.view(slot)
}

// Fetch returns D_Y(X = ā) for the X-value ā.
func (ix *Index) Fetch(xvals []value.Value) Bucket {
	return ix.FetchKey(value.KeyOf(xvals...))
}

// MaxGroup returns the largest bucket size: max over ā of |D_Y(X = ā)|.
// This is the quantity a cardinality constraint bounds.
func (ix *Index) MaxGroup() int {
	m := 0
	for _, slot := range ix.ids {
		if n := ix.buckets[slot].n; n > m {
			m = n
		}
	}
	return m
}

// Groups returns the number of distinct X-values present.
func (ix *Index) Groups() int { return len(ix.ids) }

// Keys returns the distinct X-keys present, sorted; mainly for tests and
// diagnostics that compare two indices.
func (ix *Index) Keys() []value.Key {
	out := make([]value.Key, 0, len(ix.ids))
	for k := range ix.ids {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Buckets calls f for every (X-key, bucket) pair, in unspecified key
// order, stopping early when f returns false. Buckets are immutable views
// in canonical projection-key order. It is the bulk-read hook
// coordinators use to merge per-shard group sizes without materializing
// sorted key lists.
func (ix *Index) Buckets(f func(k value.Key, b Bucket) bool) {
	for k, slot := range ix.ids {
		if !f(k, ix.view(slot)) {
			return
		}
	}
}

// String identifies the index, e.g. "index on Accident(date -> aid)".
func (ix *Index) String() string {
	return fmt.Sprintf("index on %s(%v -> %v)", ix.Rel, ix.X, ix.Y)
}
