package live

import (
	"encoding/binary"
	"fmt"

	"repro/internal/data"
	"repro/internal/schema"
	"repro/internal/value"
)

// Binary delta format: for each relation the delta touches, in
// first-touch order,
//
//	uvarint len, len name bytes, uvarint deletes, uvarint inserts,
//	(deletes + inserts) tuples, deletes first, each as its |R| cells
//
// where a cell is its value.Key encoding — the bytes checkpoints and the
// fetch exchange already carry. It is the delta as the WAL stores it and
// the stage call ships it; delta TSV stays the public text form. Every
// count is a minimal uvarint and a relation appears at most once, so an
// accepted body re-encodes byte for byte.

// AppendDelta appends d's binary encoding to dst.
func AppendDelta(dst []byte, d *Delta) []byte {
	for _, name := range d.order {
		rd := d.rels[name]
		dst = binary.AppendUvarint(value.AppendBytes(dst, name), uint64(len(rd.deletes)))
		dst = binary.AppendUvarint(dst, uint64(len(rd.inserts)))
		for _, ts := range [2][]data.Tuple{rd.deletes, rd.inserts} {
			for _, t := range ts {
				dst = value.AppendKey(dst, t...)
			}
		}
	}
	return dst
}

// DecodeDelta parses AppendDelta's encoding against s, refusing unknown
// or repeated relations, empty sections and null cells. Every tuple's
// cells are carved from one arena per relation, and decoded strings
// share body.
func DecodeDelta(body string, s *schema.Schema) (*Delta, error) {
	d := NewDelta(s)
	dec := value.NewDecoder(body)
	for dec.Len() > 0 && dec.Err() == nil {
		name := dec.Bytes()
		rs, ok := s.Relation(name)
		arity := max(rs.Arity(), 1) // every cell takes at least its kind byte
		nd, ni := dec.Count(arity), dec.Count(arity)
		switch {
		case !ok || d.rels[name] != nil:
			dec.Fail("relation %q unknown or repeated", name)
		case nd+ni == 0 || nd+ni > dec.Len()/arity:
			dec.Fail("%s with %d deletes and %d inserts", name, nd, ni)
		}
		if dec.Err() != nil {
			break
		}
		a := rs.Arity()
		cells := make([]value.Value, (nd+ni)*a)
		for i := range cells {
			if cells[i] = dec.Cell(); cells[i].IsNull() {
				dec.Fail("null cell in %s", name)
			}
		}
		tuples := make([]data.Tuple, nd+ni)
		for i := range tuples {
			tuples[i] = cells[i*a : (i+1)*a : (i+1)*a]
		}
		d.rels[name] = &relDelta{deletes: tuples[:nd:nd], inserts: tuples[nd:]}
		d.order = append(d.order, name)
	}
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("live: binary delta: %w", err)
	}
	return d, nil
}
