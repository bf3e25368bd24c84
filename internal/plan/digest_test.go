package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cover"
	"repro/internal/cq"
	"repro/internal/value"
)

var update = flag.Bool("update", false, "rewrite golden files")

// forEachCoveredPlan runs the property generator — seed 31, queries CQs
// spread over the fixtures — and calls fn with every covered query's plan
// and then, as each arity finds a partner on its fixture, with the plan of
// the covered pair's UCQ. build rebuilds a plan for other queries of the
// same kind, so a caller can check Bind against it.
func forEachCoveredPlan(t *testing.T, queries int, fn func(fx *propFixture, qs []*cq.CQ, p *Plan, build func([]*cq.CQ) (*Plan, error))) {
	t.Helper()
	fxs := propFixtures(t)
	rng := rand.New(rand.NewSource(31))
	// pending holds, per fixture and arity, a covered query awaiting a
	// UCQ partner.
	pending := map[string]*cq.CQ{}
	for i := 0; i < queries; i++ {
		fx := fxs[i%len(fxs)]
		q := genCQ(rng, fx, fmt.Sprintf("P%d", i))
		if err := q.Validate(fx.schema); err != nil {
			t.Fatalf("generated an invalid query %s: %v", q, err)
		}
		buildCQ := func(qs []*cq.CQ) (*Plan, error) {
			res, err := cover.Check(qs[0], fx.access, fx.schema, cover.Options{})
			if err != nil {
				return nil, err
			}
			return Build(res)
		}
		res, err := cover.Check(q, fx.access, fx.schema, cover.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Covered {
			continue
		}
		p, err := Build(res)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		fn(fx, []*cq.CQ{q}, p, buildCQ)

		key := fmt.Sprintf("%s/%d", fx.name, len(q.Free))
		mate := pending[key]
		if mate == nil {
			pending[key] = q
			continue
		}
		delete(pending, key)
		buildUCQ := func(qs []*cq.CQ) (*Plan, error) {
			ures, err := cover.CheckUCQ(qs, fx.access, fx.schema, cover.Options{})
			if err != nil {
				return nil, err
			}
			if !ures.Covered {
				return nil, fmt.Errorf("a union of covered queries must be covered: %v", qs)
			}
			return BuildUCQ(ures)
		}
		pair := []*cq.CQ{mate, q}
		up, err := buildUCQ(pair)
		if err != nil {
			t.Fatalf("%v: %v", pair, err)
		}
		fn(fx, pair, up, buildUCQ)
	}
}

// TestPlanOutputDigest pins what the executor emits, not only which rows:
// over the property generator's covered CQs and UCQ pairs, it hashes each
// plan's static bound and, on every fixture instance, the answer's
// columns, its rows in emitted order, Fetched and FetchKeys. A change to
// operators or to plan shapes that keeps answers as sets but moves order
// or access accounting shows here. Re-record a deliberate change with
// -update.
func TestPlanOutputDigest(t *testing.T) {
	h := sha256.New()
	plans := 0
	forEachCoveredPlan(t, 10_000, func(fx *propFixture, qs []*cq.CQ, p *Plan, _ func([]*cq.CQ) (*Plan, error)) {
		plans++
		fmt.Fprintf(h, "%v\n", qs)
		bound, err := AccessBound(p, 0)
		if err != nil {
			t.Fatalf("%v: bound: %v", qs, err)
		}
		digestInts(h, bound.Fetched, bound.Output)
		for i, ix := range fx.ixs {
			got, stats, err := Execute(p, ix)
			if err != nil {
				t.Fatalf("%v on %s #%d: %v", qs, fx.name, i, err)
			}
			fmt.Fprintf(h, "%q\n", got.Cols)
			var buf []byte
			for _, row := range got.Rows {
				buf = value.AppendKey(buf[:0], row...)
				digestInts(h, int64(len(buf)))
				h.Write(buf)
			}
			digestInts(h, int64(len(got.Rows)), stats.Fetched, stats.FetchKeys)
		}
	})
	got := fmt.Sprintf("plans %d\nsha256 %x\n", plans, h.Sum(nil))
	golden := filepath.Join("testdata", "plan_digest.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("plan output digest changed:\n got %s\nwant %s", got, want)
	}
}

func digestInts(h hash.Hash, xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}
