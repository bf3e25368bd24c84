package core

import (
	"context"
	"testing"

	"repro/internal/data"
	"repro/internal/live"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/value"
)

// logDoc is a catalog whose two constraints are general-form, log(|D|):
// every bounded plan over it has a bound that depends on |D|. C is a
// CQ, U a union, and E is not boundedly evaluable but has a covered
// upper envelope.
const logDoc = `
relation R(a, b)
relation S(a, b)
constraint R(a -> b, log)
constraint S(a -> b, log)
query C(y) :- R(1, y).
query U(y) :- R(1, y).
query U(y) :- S(2, y).
query E(x) :- R(1, x), R(y, 1), R(x, z).
`

// logEngine builds an engine over logDoc holding 16 tuples.
func logEngine(t *testing.T, doc *parser.Document, opts Options) *Engine {
	t.Helper()
	eng, err := New(doc.Schema, doc.Access, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := data.NewInstance(doc.Schema)
	for i := int64(0); i < 8; i++ {
		d.MustInsert("R", value.NewInt(i), value.NewInt(i%3))
		d.MustInsert("S", value.NewInt(i), value.NewInt(i%5))
	}
	if err := eng.Load(d); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestCachedBoundAtRequestSize pins that a cached plan's bound is the
// bound at the request's |D|, not at the size the entry was planned at
// or the size of the engine's own instance: a view of another |D|
// served from the cache — miss, hit, and hit at yet another size —
// reports exactly the bound an uncached engine reports at that size,
// for a CQ, a union and an upper envelope. Budget admission reads this
// bound, so it must not depend on cache state.
func TestCachedBoundAtRequestSize(t *testing.T) {
	doc, err := parser.Parse(logDoc)
	if err != nil {
		t.Fatal(err)
	}
	eng := logEngine(t, doc, Options{})
	ref := logEngine(t, doc, Options{PlanCache: -1})
	ix := eng.Indexed()
	view := func(size int) *View {
		return &View{
			Size:     size,
			Source:   plan.NewSource(ix),
			Instance: func(context.Context) (*data.Instance, error) { return ix.Instance, nil },
		}
	}
	for _, name := range []string{"C", "U", "E"} {
		pq, ok := doc.Query(name)
		if !ok {
			t.Fatalf("no query %s", name)
		}
		q := pq.PosFO
		fallback := WithFallback(FallbackEnvelope)
		for i, size := range []int{4096, 4096, 1 << 20, 16} {
			got, err := eng.QueryView(context.Background(), q, view(size), fallback)
			if err != nil {
				t.Fatalf("%s at |D| = %d: %v", name, size, err)
			}
			want, err := ref.QueryView(context.Background(), q, view(size), fallback)
			if err != nil {
				t.Fatalf("%s reference at |D| = %d: %v", name, size, err)
			}
			if got.Stats.CacheHit != (i > 0) {
				t.Fatalf("%s request %d: CacheHit = %v", name, i, got.Stats.CacheHit)
			}
			if name == "E" && got.Mode != ViaUpperEnvelope {
				t.Fatalf("%s served via %v, want the upper envelope", name, got.Mode)
			}
			g, w := got.Bound, want.Bound
			if g.SizeHint != size || g.SizeHint != w.SizeHint || g.Fetched != w.Fetched || g.Output != w.Output {
				t.Errorf("%s request %d at |D| = %d: bound %+v, uncached engine %+v", name, i, size, *g, *w)
			}
		}
	}
	// The sizes above span log bounds 5 to 21: a bound that ignored the
	// request's |D| would have shown.
	c, _ := doc.Query("C")
	_, b16, err := ref.PlanAt(c.Subs[0], 16)
	if err != nil {
		t.Fatal(err)
	}
	_, b20, err := ref.PlanAt(c.Subs[0], 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if b16.Fetched == b20.Fetched {
		t.Fatalf("C's bound does not depend on |D| (%d at both sizes)", b16.Fetched)
	}
}

// TestApplyNilContextLargeDelta applies a delta long enough for the
// staging loop to poll its context, passing a nil ctx: Apply treats it
// as context.Background(), like Query does.
func TestApplyNilContextLargeDelta(t *testing.T) {
	eng := keyedEngine(t)
	d := live.NewDelta(eng.Schema)
	for i := int64(0); i < 2048; i++ {
		d.MustInsert("S", value.NewInt(1000+i), value.NewInt(i))
	}
	before := eng.Stats().Size
	//lint:ignore SA1012 a nil ctx is the case under test
	res, err := eng.Apply(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 2048 || eng.Stats().Size != before+2048 {
		t.Fatalf("inserted %d, size %d → %d", res.Inserted, before, eng.Stats().Size)
	}
}
