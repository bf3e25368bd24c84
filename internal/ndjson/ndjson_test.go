package ndjson_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/ndjson"
	"repro/internal/schema"
	"repro/internal/value"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// noteRows is the answer size of noteQuery: comfortably more rows than
// the executor's cancellation stride, so a cancel after the first row
// lands before the last one.
const noteRows = 600

// awkward are string cells JSON must escape (or, for the last, must pass
// through as UTF-8).
var awkward = []string{`say "hi"`, `back\slash`, "line\nbreak", "tab\there", "<&>", "naïve ✓"}

// noteEngine serves Note(K, N, S) under K → (N, S) with noteRows tuples
// at K = 1; the first rows carry the awkward strings.
func noteEngine(t *testing.T) *core.Engine {
	t.Helper()
	s := schema.MustNew(schema.MustRelation("Note", "K", "N", "S"))
	a := access.NewSchema(access.NewConstraint("Note",
		[]schema.Attribute{"K"}, []schema.Attribute{"N", "S"}, noteRows))
	eng, err := core.New(s, a, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := data.NewInstance(s)
	for i := 0; i < noteRows; i++ {
		str := fmt.Sprintf("s-%d", i)
		if i < len(awkward) {
			str = awkward[i]
		}
		d.MustInsert("Note", value.NewInt(1), value.NewInt(int64(i)), value.NewString(str))
	}
	if err := eng.Load(d); err != nil {
		t.Fatal(err)
	}
	return eng
}

// noteQuery is Z(n, s) :- Note(1, n, s).
func noteQuery() *cq.CQ {
	return &cq.CQ{
		Label: "Z", Free: []string{"n", "s"},
		Atoms: []cq.Atom{cq.NewAtom("Note", cq.Const(value.NewInt(1)), cq.Var("n"), cq.Var("s"))},
	}
}

// decodeLines parses every NDJSON line, keeping numbers as json.Number so
// an int cell quoted as a string cannot pass for one.
func decodeLines(t *testing.T, out string) []map[string]any {
	t.Helper()
	var objs []map[string]any
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		dec := json.NewDecoder(strings.NewReader(line))
		dec.UseNumber()
		var obj map[string]any
		if err := dec.Decode(&obj); err != nil {
			t.Fatalf("line %q is not a JSON object: %v", line, err)
		}
		objs = append(objs, obj)
	}
	return objs
}

// checkCell asserts a decoded cell carries v in its natural JSON type.
func checkCell(t *testing.T, got any, v value.Value) {
	t.Helper()
	if v.Kind() == value.Int {
		if n, ok := got.(json.Number); !ok || n.String() != fmt.Sprint(v.Int()) {
			t.Errorf("int cell %d encoded as %#v, want a JSON number", v.Int(), got)
		}
		return
	}
	if s, ok := got.(string); !ok || s != v.Str() {
		t.Errorf("string cell %q decoded as %#v", v.Str(), got)
	}
}

func TestWriteRowsAndFlush(t *testing.T) {
	eng := noteEngine(t)
	res, err := eng.Query(context.Background(), noteQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != noteRows || len(res.Columns) != 2 {
		t.Fatalf("answer = %d rows over %v", len(res.Rows), res.Columns)
	}
	var buf bytes.Buffer
	flushes := 0
	if err := ndjson.Write(&buf, res, func() { flushes++ }); err != nil {
		t.Fatal(err)
	}
	objs := decodeLines(t, buf.String())
	if len(objs) != noteRows || flushes != noteRows {
		t.Fatalf("%d lines, %d flushes; want %d of each", len(objs), flushes, noteRows)
	}
	for i, obj := range objs {
		if len(obj) != len(res.Columns) {
			t.Fatalf("line %d has keys %v, want %v", i, obj, res.Columns)
		}
		for j, col := range res.Columns {
			checkCell(t, obj[col], res.Rows[i][j])
		}
	}
	// The escapes are encoding/json's, byte for byte.
	for _, s := range awkward {
		enc, _ := json.Marshal(s)
		if !bytes.Contains(buf.Bytes(), enc) {
			t.Errorf("output lacks %s", enc)
		}
	}
}

func TestWriteColumnNameFallback(t *testing.T) {
	eng := noteEngine(t)
	res, err := eng.Query(context.Background(), noteQuery())
	if err != nil {
		t.Fatal(err)
	}
	named := res.Columns[0]
	res.Columns = res.Columns[:1]
	var buf bytes.Buffer
	if err := ndjson.Write(&buf, res, nil); err != nil {
		t.Fatal(err)
	}
	for i, obj := range decodeLines(t, buf.String()) {
		checkCell(t, obj[named], res.Rows[i][0])
		checkCell(t, obj["col1"], res.Rows[i][1])
	}
}

// A stream whose context is canceled mid-iteration must end in the
// deferred error, not read as a complete (shorter) answer.
func TestWriteCanceledStream(t *testing.T) {
	eng := noteEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := eng.Query(ctx, noteQuery(), core.WithStream())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = ndjson.Write(&buf, res, cancel)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Write = %v, want context.Canceled", err)
	}
	if n := len(decodeLines(t, buf.String())); n == 0 || n >= noteRows {
		t.Errorf("%d lines written before the cancel took effect, want 0 < n < %d", n, noteRows)
	}
}

func TestWriteProfileNil(t *testing.T) {
	var buf bytes.Buffer
	flushed := false
	if err := ndjson.WriteProfile(&buf, nil, func() { flushed = true }); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 || flushed {
		t.Errorf("nil profile wrote %q (flushed %v), want nothing", buf.String(), flushed)
	}
}

// FuzzAppendString pins the string appender to encoding/json: whatever
// the input, the fast path (HTML-safe ASCII copied between quotes) and
// the fallback together produce exactly json.Marshal's bytes.
func FuzzAppendString(f *testing.F) {
	for _, s := range awkward {
		f.Add(s)
	}
	for _, s := range []string{
		"", "plain", "\xff", "\xe2\x82", // invalid UTF-8: a stray byte, a truncated 3-byte rune
		"\u2028", "\u2029", "\b", "\f", "\x00", "\x1f", "\x7f", "a\x7fb",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("x")
		if got := ndjson.AppendString(prefix, s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("appendString(%q) = %s, want x%s", s, got, want)
		}
	})
}

// An int cell is json.Marshal's rendering of its int64, extremes
// included.
func TestAppendIntMatchesMarshal(t *testing.T) {
	for _, n := range []int64{0, -1, 1, math.MinInt64, math.MaxInt64} {
		want, _ := json.Marshal(n)
		if got := ndjson.AppendValue(nil, value.NewInt(n)); !bytes.Equal(got, want) {
			t.Errorf("appendValue(%d) = %s, want %s", n, got, want)
		}
	}
}

// TestWriteAllocsPerCall pins the append encoder's cost: a call allocates
// a fixed handful (the row iterator and the loop state it captures, the
// line buffer, one prefix per column) and nothing per row, so a 600-row
// answer allocates exactly what a 6-row one does. Strings outside the
// HTML-safe ASCII set go through json.Marshal and do allocate, so the
// answers here carry ints and plain strings only.
func TestWriteAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the plain build's")
	}
	const ceiling = 12 // two columns allocate 10
	answer := func(rows int) *core.Result {
		res := &core.Result{Columns: []string{"n", "s"}}
		for i := 0; i < rows; i++ {
			res.Rows = append(res.Rows, data.Tuple{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("s-%d", i))})
		}
		return res
	}
	allocs := func(rows int) float64 {
		res := answer(rows)
		return testing.AllocsPerRun(20, func() {
			if err := ndjson.Write(io.Discard, res, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(6), allocs(600)
	if small != large {
		t.Errorf("allocs per call: %v for 6 rows, %v for 600; want equal", small, large)
	}
	if large > ceiling {
		t.Errorf("allocs per call = %v, want ≤ %d", large, ceiling)
	}
}
