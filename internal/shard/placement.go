package shard

import (
	"fmt"
	"slices"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/live"
	"repro/internal/schema"
	"repro/internal/value"
)

// Placement is the tuple-routing table: per-relation partition keys
// plus the partition count. A coordinator and every partition server
// derive it independently from the shared catalog, so they agree on
// ownership without exchanging it.
type Placement struct {
	schema *schema.Schema
	k      int
	keys   map[string]partKey
}

// partKey says how one relation is spread across partitions.
type partKey struct {
	attrs []schema.Attribute
	pos   []int // positions of attrs in the relation's attribute order
}

// NewPlacement derives the placement of s over k partitions: each
// relation is partitioned by its DefaultPartitionKey. It is a function
// of the catalog and k alone, so a coordinator and its partition
// servers that agree on both (Attach checks the catalog fingerprint and
// the partition count) agree on every tuple's owner.
func NewPlacement(s *schema.Schema, a *access.Schema, k int) (*Placement, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: need at least one partition, got %d", k)
	}
	p := &Placement{schema: s, k: k, keys: make(map[string]partKey)}
	for _, rs := range s.Relations() {
		attrs := DefaultPartitionKey(rs, a)
		pos, err := rs.Positions(attrs)
		if err != nil {
			return nil, fmt.Errorf("shard: bad partition key for %s: %w", rs.Name, err)
		}
		p.keys[rs.Name] = partKey{attrs: attrs, pos: pos}
	}
	return p, nil
}

// DefaultPartitionKey picks the X of the relation's first access
// constraint with a nonempty X, so that constraint's indexed fetches
// route to exactly one partition; a relation with no such constraint is
// partitioned by all its attributes (an even spread — every access to
// it scatters anyway).
func DefaultPartitionKey(rs schema.Relation, a *access.Schema) []schema.Attribute {
	for _, c := range a.ForRelation(rs.Name) {
		if len(c.X) > 0 {
			return c.X
		}
	}
	return rs.Attrs
}

// AttrsEqual is order-sensitive attribute-list equality: routing relies
// on the partition key encoding exactly matching the fetch key encoding.
func AttrsEqual(a, b []schema.Attribute) bool { return slices.Equal(a, b) }

// ShardOf maps an encoded partition-key value to a partition (FNV-1a:
// fast, deterministic across processes, good spread on short keys).
// Generic over the key spelling so raw scratch bytes route without a
// conversion allocation. It IS the placement function: a tuple lives on
// the same partition whether the fleet is in-process or networked.
func ShardOf[T ~string | ~[]byte](k T, n int) int {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(k); i++ {
		h ^= uint32(k[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// aligned reports whether each group D_Y(X = ā) of constraint c lives
// wholly on partition ShardOf(ā): there is one partition, or c's fetch
// keys coincide with its relation's partition key. A constraint that is
// not aligned may still route by its rows' partition key (groupKey).
func (p *Placement) aligned(c access.Constraint) bool {
	return p.k == 1 || AttrsEqual(p.keys[c.Rel].attrs, c.X)
}

// groupKey returns the partition key P of c's relation R when each group
// of c lies wholly on one partition, nil otherwise. That holds when A has
// some R(X′ → Y′, 1) with X′ ⊆ X_c and P ⊆ X′ ∪ Y′: the tuples of one
// group agree on X′, so on their one Y′-projection, so on P.
func (p *Placement) groupKey(c access.Constraint, a *access.Schema) []schema.Attribute {
	pk := p.keys[c.Rel].attrs
	for _, fd := range a.Constraints {
		if fd.Rel == c.Rel && fd.Card.IsConst() && fd.Card.Const == 1 &&
			!slices.ContainsFunc(fd.X, func(x schema.Attribute) bool { return !slices.Contains(c.X, x) }) &&
			!slices.ContainsFunc(pk, func(x schema.Attribute) bool { return !fd.Covers(x) }) {
			return pk
		}
	}
	return nil
}

// splitDelta partitions a delta into per-partition sub-deltas by each
// touched tuple's partition key. One partition's sub-delta is d itself.
func (p *Placement) splitDelta(d *live.Delta) ([]*live.Delta, error) {
	if p.k == 1 {
		return []*live.Delta{d}, nil
	}
	subs := make([]*live.Delta, p.k)
	for i := range subs {
		subs[i] = live.NewDelta(p.schema)
	}
	err := d.Each(func(rel string, insert bool, t data.Tuple) error {
		pk, ok := p.keys[rel]
		if !ok {
			return fmt.Errorf("shard: delta references unknown relation %s", rel)
		}
		i := ShardOf(value.KeyOfAt(t, pk.pos), p.k)
		if insert {
			return subs[i].Insert(rel, t...)
		}
		return subs[i].Delete(rel, t...)
	})
	if err != nil {
		return nil, err
	}
	return subs, nil
}

// split hash-partitions d in one pass, one instance per partition; with
// only ≥ 0 it builds just partition only's share and leaves the others
// nil. One partition's share is d itself: nothing is copied.
func (p *Placement) split(d *data.Instance, only int) ([]*data.Instance, error) {
	out := make([]*data.Instance, p.k)
	if p.k == 1 {
		out[0] = d
		return out, nil
	}
	for i := range out {
		if only < 0 || i == only {
			out[i] = data.NewInstance(p.schema)
		}
	}
	for _, rs := range p.schema.Relations() {
		rel := d.Relation(rs.Name)
		if rel == nil {
			return nil, fmt.Errorf("shard: instance has no relation %s", rs.Name)
		}
		pos := p.keys[rs.Name].pos
		var buf data.Tuple
		var kb []byte
		for ri := 0; ri < rel.Len(); ri++ {
			kb = rel.AppendKeyAt(kb[:0], ri, pos)
			sub := out[ShardOf(kb, p.k)]
			if sub == nil {
				continue
			}
			buf = rel.AppendRow(buf, ri)
			if _, err := sub.Relation(rs.Name).Insert(buf); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Share returns the sub-instance of d owned by partition id: exactly
// the tuples ShardOf places there (d itself when there is one
// partition). Partition servers use it so every node of a fleet can be
// pointed at the same dataset and keep only its share.
func (p *Placement) Share(d *data.Instance, id int) (*data.Instance, error) {
	out, err := p.split(d, id)
	if err != nil {
		return nil, err
	}
	return out[id], nil
}
