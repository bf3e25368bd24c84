package value

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Key is a compact, comparable encoding of a sequence of Values. It is the
// bucket key type used by the index substrate and by hash joins: two value
// sequences encode to the same Key iff they are element-wise equal.
type Key string

// KeyOf encodes vals into a Key. The encoding is injective: each element is
// tagged with its kind and length-prefixed, so ("a","b") and ("ab",) differ.
// Every index probe and hash-join bucket goes through a key encode, so
// this must not pick up incidental allocation.
//
//bevet:hotpath
func KeyOf(vals ...Value) Key {
	var b strings.Builder
	// Rough preallocation: tag+len plus payload per value.
	n := 0
	for _, v := range vals {
		n += 10 + len(v.s)
	}
	b.Grow(n)
	var buf [binary.MaxVarintLen64]byte
	for _, v := range vals {
		b.WriteByte(byte(v.kind))
		switch v.kind {
		case Int:
			k := binary.PutVarint(buf[:], v.i)
			b.Write(buf[:k])
		case String:
			k := binary.PutUvarint(buf[:], uint64(len(v.s)))
			b.Write(buf[:k])
			b.WriteString(v.s)
		}
	}
	return Key(b.String())
}

// AppendBytes appends b with its uvarint length before it: what
// Decoder.Bytes reads.
func AppendBytes[B ~string | ~[]byte](dst []byte, b B) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// Decoder reads the one binary encoding the system keeps below its
// public API — in WAL records, checkpoints and every body of the
// partition wire: minimal uvarints, uvarint-length-prefixed byte
// strings, and Key cells. It reads a string or a []byte in place and
// never allocates: Bytes aliases the input, and so does a decoded
// string cell when the input is a string. A uvarint padded with zero
// high-order groups is refused, so every accepted encoding is the one
// its encoder writes. The first malformed item sets a sticky error;
// every read after it returns a zero value, so a caller decodes a whole
// structure and checks Err once.
type Decoder[B string | []byte] struct {
	b   B
	off int
	err error
}

// NewDecoder returns a Decoder at the start of b.
func NewDecoder[B string | []byte](b B) Decoder[B] { return Decoder[B]{b: b} }

// Err is the first malformed item's error, or nil.
func (d *Decoder[B]) Err() error { return d.err }

// Len is the number of bytes not yet read.
func (d *Decoder[B]) Len() int { return len(d.b) - d.off }

// Offset is the number of bytes read so far.
func (d *Decoder[B]) Offset() int { return d.off }

// Done is Err, after refusing any bytes left unread: the check that the
// input holds exactly what was decoded from it.
func (d *Decoder[B]) Done() error {
	if d.off < len(d.b) {
		d.Fail("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// Fail sets the decoder's error, unless one is set already: a caller's
// own check of what it decoded, reported with the decoder's.
func (d *Decoder[B]) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("value: offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

// Byte reads one byte.
func (d *Decoder[B]) Byte() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.Fail("truncated")
		return 0
	}
	d.off++
	return d.b[d.off-1]
}

// Uint32 reads a little-endian uint32.
func (d *Decoder[B]) Uint32() uint32 {
	if d.err != nil || d.Len() < 4 {
		d.Fail("truncated")
		return 0
	}
	b := d.b[d.off : d.off+4]
	d.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Uvarint reads a minimal uvarint.
func (d *Decoder[B]) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	var x uint64
	var shift uint
	for n := 0; d.off+n < len(d.b) && n < binary.MaxVarintLen64; n++ {
		c := d.b[d.off+n]
		if c >= 0x80 {
			x |= uint64(c&0x7f) << shift
			shift += 7
			continue
		}
		if n > 0 && c == 0 || n == binary.MaxVarintLen64-1 && c > 1 {
			break // a padded group, or past 64 bits
		}
		d.off += n + 1
		return x | uint64(c)<<shift
	}
	d.Fail("truncated, overflowing or non-minimal uvarint")
	return 0
}

// Count reads a uvarint count of items that each take at least min of
// the bytes left, refusing one those bytes cannot hold: a caller may
// size an allocation by what Count returns.
func (d *Decoder[B]) Count(min int) int {
	n := d.Uvarint()
	if left := uint64(d.Len()) / uint64(min); n > left {
		d.Fail("%d items of at least %d bytes overrun the %d bytes left", n, min, d.Len())
		return 0
	}
	return int(n)
}

// Bytes reads a uvarint length and that many bytes, aliasing the input.
func (d *Decoder[B]) Bytes() B {
	n := d.Uvarint()
	if n > uint64(d.Len()) {
		d.Fail("%d bytes overrun the %d left", n, d.Len())
		n = 0
	}
	d.off += int(n)
	return d.b[d.off-int(n) : d.off]
}

// Rest reads every byte left, aliasing the input.
func (d *Decoder[B]) Rest() B {
	rest := d.b[d.off:]
	d.off = len(d.b)
	return rest
}

// Cell reads one value in its Key encoding — the per-cell inverse of
// AppendValueKey. Decoded string values share a string input's memory.
func (d *Decoder[B]) Cell() Value {
	kind := Kind(d.Byte())
	if d.err != nil {
		return Value{}
	}
	switch kind {
	case Null:
		return Value{}
	case Int:
		// Undo binary.PutVarint's zig-zag mapping.
		u := d.Uvarint()
		v := int64(u >> 1)
		if u&1 != 0 {
			v = ^v
		}
		return NewInt(v)
	case String:
		return NewString(string(d.Bytes()))
	}
	d.off--
	d.Fail("unknown kind %d", uint8(kind))
	return Value{}
}

// AppendKey appends the Key encoding of vals to dst and returns the
// extended slice. It is KeyOf for callers that scan many tuples and
// want to reuse one scratch buffer instead of materializing a string
// per tuple; dst[:0] round trips make the loop allocation-free, and a
// map lookup via m[Key(dst)] compiles without a copy.
func AppendKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		dst = AppendValueKey(dst, v)
	}
	return dst
}

// AppendValueKey appends the Key encoding of the single value v to dst.
// It is the per-cell building block of AppendKey for callers that walk a
// columnar row: a variadic AppendKey(dst, v) call would box v into a
// fresh one-element slice on every cell.
//
//bevet:hotpath
func AppendValueKey(dst []byte, v Value) []byte {
	var buf [binary.MaxVarintLen64]byte
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case Int:
		k := binary.PutVarint(buf[:], v.i)
		dst = append(dst, buf[:k]...)
	case String:
		k := binary.PutUvarint(buf[:], uint64(len(v.s)))
		dst = append(dst, buf[:k]...)
		dst = append(dst, v.s...)
	}
	return dst
}

// AppendKeyAt appends the Key encoding of the projection of row onto
// positions cols — AppendKey's positional counterpart, and KeyOfAt for
// callers reusing one scratch buffer across a scan.
//
//bevet:hotpath
func AppendKeyAt(dst []byte, row []Value, cols []int) []byte {
	var buf [binary.MaxVarintLen64]byte
	for _, c := range cols {
		v := row[c]
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case Int:
			k := binary.PutVarint(buf[:], v.i)
			dst = append(dst, buf[:k]...)
		case String:
			k := binary.PutUvarint(buf[:], uint64(len(v.s)))
			dst = append(dst, buf[:k]...)
			dst = append(dst, v.s...)
		}
	}
	return dst
}

// KeyOfAt encodes the projection of row onto positions cols. It avoids the
// intermediate slice that KeyOf(project(row, cols)...) would allocate.
//
//bevet:hotpath
func KeyOfAt(row []Value, cols []int) Key {
	var b strings.Builder
	n := 0
	for _, c := range cols {
		n += 10 + len(row[c].s)
	}
	b.Grow(n)
	var buf [binary.MaxVarintLen64]byte
	for _, c := range cols {
		v := row[c]
		b.WriteByte(byte(v.kind))
		switch v.kind {
		case Int:
			k := binary.PutVarint(buf[:], v.i)
			b.Write(buf[:k])
		case String:
			k := binary.PutUvarint(buf[:], uint64(len(v.s)))
			b.Write(buf[:k])
			b.WriteString(v.s)
		}
	}
	return Key(b.String())
}
