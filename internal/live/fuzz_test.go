package live

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

// FuzzReadDeltaTSV feeds arbitrary bytes to the delta TSV reader. The
// invariants:
//
//  1. ReadDeltaTSV never panics — malformed input errors.
//  2. Round-trip: an accepted delta written back with WriteDeltaTSV and
//     re-read yields the identical serialized form (the codec is a
//     bijection on its accepted set modulo the canonical op/relation
//     ordering WriteDeltaTSV emits).
func FuzzReadDeltaTSV(f *testing.F) {
	f.Add("+\tR\t1\tabc\n-\tR\t2\ts:tab\\there\n")
	f.Add("+\tS\t3\n# comment\n\n-\tS\t4\n")
	f.Add("+\tR\t1\n")                // bad arity
	f.Add("*\tR\t1\tx\n")             // bad op
	f.Add("+\tGhost\t1\tx\n")         // unknown relation
	f.Add("+\tR\t1\ts:bad\\escape\n") // bad escape
	f.Add("justonecolumn\n")          // too few cells
	f.Add("+\tR\t\xff\xfe\t\x00\n")   // non-UTF8 cells
	f.Add(strings.Repeat("+\tS\t9\n", 50))
	s := schema.MustNew(
		schema.MustRelation("R", "a", "b"),
		schema.MustRelation("S", "k"),
	)
	f.Fuzz(func(t *testing.T, input string) {
		d, err := ReadDeltaTSV(strings.NewReader(input), s)
		if err != nil {
			return // rejected cleanly: that is the contract
		}
		var first bytes.Buffer
		if err := WriteDeltaTSV(&first, d); err != nil {
			t.Fatalf("write of accepted delta failed: %v", err)
		}
		d2, err := ReadDeltaTSV(bytes.NewReader(first.Bytes()), s)
		if err != nil {
			t.Fatalf("re-read of written delta failed: %v\nwritten:\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := WriteDeltaTSV(&second, d2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round-trip is not a fixed point:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
		if d2.Len() != d.Len() {
			t.Fatalf("op count changed across round-trip: %d -> %d", d.Len(), d2.Len())
		}
	})
}

// FuzzDelta holds the binary delta codec to its contract on arbitrary
// bodies: DecodeDelta never panics, an accepted body re-encodes byte for
// byte, and the delta it decodes is the one its delta TSV rendering
// reads back as.
func FuzzDelta(f *testing.F) {
	s := schema.MustNew(
		schema.MustRelation("R", "a", "b"),
		schema.MustRelation("S", "k"),
	)
	d := NewDelta(s)
	d.MustInsert("S", value.NewInt(-3))
	d.MustInsert("R", value.NewInt(1), value.NewString("abc"))
	d.MustDelete("R", value.NewString("12"), value.NewString("tab\there"))
	f.Add(AppendDelta(nil, d))
	f.Add([]byte{})
	f.Add([]byte{1, 'S', 0, 0})                           // an empty section
	f.Add([]byte{1, 'S', 0, 1, 0})                        // a null cell
	f.Add([]byte{1, 'S', 0, 1, 1, 2, 1, 'S', 0, 1, 1, 4}) // S twice
	f.Add([]byte{1, 'S', 0, 0x80, 0x00, 1, 2})            // a padded count
	f.Fuzz(func(t *testing.T, body []byte) {
		d, err := DecodeDelta(string(body), s)
		if err != nil {
			return
		}
		if got := AppendDelta(nil, d); !bytes.Equal(got, body) {
			t.Fatalf("accepted %x, re-encodes to %x", body, got)
		}
		var tsv bytes.Buffer
		if err := WriteDeltaTSV(&tsv, d); err != nil {
			t.Fatal(err)
		}
		back, err := ReadDeltaTSV(&tsv, s)
		if err != nil {
			t.Fatalf("delta TSV of an accepted body is refused: %v", err)
		}
		if got := AppendDelta(nil, back); !bytes.Equal(got, body) {
			t.Fatalf("accepted %x, its delta TSV reads back as %x", body, got)
		}
	})
}
