package value

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"strings"
)

// Key is a compact, comparable encoding of a sequence of Values. It is the
// bucket key type used by the index substrate and by hash joins: two value
// sequences encode to the same Key iff they are element-wise equal.
type Key string

// MarshalText gives a Key its form in text formats (JSON): base64 of the
// raw encoding, which is binary and would not survive as a string. The
// round trip is bit-exact, so the receiver hashes and compares the key
// exactly as the sender would.
func (k Key) MarshalText() ([]byte, error) {
	return base64.StdEncoding.AppendEncode(nil, []byte(k)), nil
}

// UnmarshalText parses the MarshalText form.
func (k *Key) UnmarshalText(text []byte) error {
	raw, err := base64.StdEncoding.AppendDecode(nil, text)
	if err != nil {
		return fmt.Errorf("value: bad key text: %w", err)
	}
	*k = Key(raw)
	return nil
}

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

// uvarintStr is binary.Uvarint over a string tail, so decoding never
// converts the tail to []byte (which allocates and copies per call). It
// additionally rejects non-canonical encodings — varints padded with
// zero high-order groups — since a padded group's final byte is 0x00
// and a minimal multi-byte encoding's never is. Returns consumed
// bytes, or 0 on truncated/overflowing/non-canonical input.
func uvarintStr(s string, i int) (uint64, int) {
	var x uint64
	var shift uint
	for n := 0; i+n < len(s); n++ {
		b := s[i+n]
		if b < 0x80 {
			if n > 0 && b == 0 {
				return 0, 0 // non-canonical padding
			}
			if n == 9 && b > 1 {
				return 0, 0 // overflows uint64
			}
			return x | uint64(b)<<shift, n + 1
		}
		if n == 9 {
			return 0, 0 // more than MaxVarintLen64 bytes
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, 0 // truncated
}

// AppendDecodeKey parses a Key back into the value sequence that
// produced it, appending to dst, so bulk decoders can carve many small
// value slices out of one arena allocation instead of paying one
// allocation per key. It is the exact inverse of KeyOf: on success,
// KeyOf of the appended values reproduces k byte for byte.
// Non-canonical encodings are rejected rather than normalised, so a Key
// either round-trips exactly or fails to decode. The checkpoint codec
// relies on this to store tuples as their Keys and still guarantee that
// decode-then-encode is a fixed point. Decoded string values share k's
// backing memory.
func AppendDecodeKey(dst []Value, k Key) ([]Value, error) {
	vals := dst
	for i := 0; i < len(k); {
		v, next, err := DecodeKeyCell(k, i)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		i = next
	}
	return vals, nil
}

// DecodeKeyCell decodes the single value starting at byte offset i of k,
// returning it with the offset just past its encoding — the per-cell
// inverse of AppendValueKey. Bulk restorers use it to stream a key's
// cells straight into columnar storage without materializing a []Value
// per tuple. Decoded string values share k's backing memory.
func DecodeKeyCell(k Key, i int) (Value, int, error) {
	b := string(k)
	if i >= len(b) {
		return Value{}, 0, fmt.Errorf("value: key offset %d: truncated cell", i)
	}
	kind := Kind(b[i])
	i++
	switch kind {
	case Null:
		return Value{}, i, nil
	case Int:
		u, n := uvarintStr(b, i)
		if n == 0 {
			return Value{}, 0, fmt.Errorf("value: key offset %d: bad varint", i)
		}
		i += n
		// Undo binary.PutVarint's zig-zag mapping.
		v := int64(u >> 1)
		if u&1 != 0 {
			v = ^v
		}
		return NewInt(v), i, nil
	case String:
		l, n := uvarintStr(b, i)
		if n == 0 {
			return Value{}, 0, fmt.Errorf("value: key offset %d: bad length varint", i)
		}
		i += n
		if l > uint64(len(b)-i) {
			return Value{}, 0, fmt.Errorf("value: key offset %d: string length %d overruns key", i, l)
		}
		return NewString(b[i : i+int(l)]), i + int(l), nil
	default:
		return Value{}, 0, fmt.Errorf("value: key offset %d: unknown kind %d", i-1, uint8(kind))
	}
}

// AppendKey appends the Key encoding of vals to dst and returns the
// extended slice. It is KeyOf for callers that scan many tuples and
// want to reuse one scratch buffer instead of materializing a string
// per tuple; dst[:0] round trips make the loop allocation-free, and a
// map lookup via m[Key(dst)] compiles without a copy.
func AppendKey(dst []byte, vals ...Value) []byte {
	var buf [binary.MaxVarintLen64]byte
	for _, v := range vals {
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
