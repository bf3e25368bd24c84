package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/live"
	"repro/internal/parser"
	"repro/internal/shard"
)

// logDoc is a catalog whose constraints are general-form, log(|D|), so
// every bound depends on |D|: C is a CQ, U a union, and E is not
// boundedly evaluable but has a covered upper envelope.
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

// logBed serves logDoc over 16 tuples.
func logBed(t *testing.T) (testbed, *parser.Document) {
	t.Helper()
	doc, err := parser.Parse(logDoc)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *data.Instance {
		d := data.NewInstance(doc.Schema)
		for i := int64(0); i < 8; i++ {
			d.MustInsert("R", iv(i), iv(i%3))
			d.MustInsert("S", iv(i), iv(i%5))
		}
		return d
	}
	return testbed{name: "log", schema: doc.Schema, access: doc.Access, build: build}, doc
}

// TestBoundAtPublishedSize checks that a coordinator's bounds are the
// bounds at the |D| it has published, cache miss or hit: after Load and
// again after an Apply that grows |D| 32-fold, Query (CQ, union,
// envelope), Plan and Explain answer exactly what an uncached
// core.Engine holding the same data answers — for in-process fleets
// (shard.New) and HTTP fleets of one and four partitions.
func TestBoundAtPublishedSize(t *testing.T) {
	tb, doc := logBed(t)
	grow := live.NewDelta(tb.schema)
	for i := int64(100); i < 340; i++ {
		grow.MustInsert("R", iv(i), iv(i%3))
		grow.MustInsert("S", iv(i), iv(i%5))
	}
	for _, kind := range []string{"shard.New", "http"} {
		for _, k := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/K=%d", kind, k), func(t *testing.T) {
				var eng *shard.Engine
				if kind == "http" {
					eng = newFleet(t, tb, kind, k).eng
				} else {
					var err error
					if eng, err = shard.New(tb.schema, tb.access, shard.Options{Shards: k}); err != nil {
						t.Fatal(err)
					}
				}
				ref, err := core.New(tb.schema, tb.access, core.Options{PlanCache: -1})
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range []core.Queryable{eng, ref} {
					if err := e.Load(tb.build()); err != nil {
						t.Fatal(err)
					}
				}
				checkBoundsMatch(t, "loaded", doc, ref, eng)
				misses := eng.CacheStats().Misses
				for _, e := range []core.Queryable{eng, ref} {
					if _, err := e.Apply(context.Background(), grow); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := eng.Stats().Size, ref.Stats().Size; got != want || want != 16+480 {
					t.Fatalf("|D| after the apply: %d, reference %d", got, want)
				}
				checkBoundsMatch(t, "grown", doc, ref, eng)
				if st := eng.CacheStats(); st.Misses != misses || st.Hits == 0 {
					t.Fatalf("the grown round must be served from the cache: %+v (misses before %d)", st, misses)
				}
			})
		}
	}
}

// checkBoundsMatch compares every bound eng reports for doc's queries
// with the uncached reference's.
func checkBoundsMatch(t *testing.T, label string, doc *parser.Document, ref *core.Engine, eng *shard.Engine) {
	t.Helper()
	for _, name := range []string{"C", "U", "E"} {
		pq, _ := doc.Query(name)
		opt := core.WithFallback(core.FallbackEnvelope)
		want, err := ref.Query(context.Background(), pq.PosFO, opt)
		if err != nil {
			t.Fatalf("%s: reference %s: %v", label, name, err)
		}
		got, err := eng.Query(context.Background(), pq.PosFO, opt)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, name, err)
		}
		if g, w := got.Bound, want.Bound; g.SizeHint != w.SizeHint || g.Fetched != w.Fetched || g.Output != w.Output {
			t.Errorf("%s: %s bound %v, reference %v", label, name, g, w)
		}
		if !pq.IsCQ() {
			continue
		}
		wantX, err := ref.Explain(pq.Subs[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		if gotX, err := eng.Explain(pq.Subs[0], nil); err != nil || gotX != wantX {
			t.Errorf("%s: Explain %s:\n%s\nreference:\n%s (err %v)", label, name, gotX, wantX, err)
		}
	}
	c, _ := doc.Query("C")
	_, want, err := ref.Plan(c.Subs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, got, err := eng.Plan(c.Subs[0]); err != nil || got.SizeHint != want.SizeHint || got.Fetched != want.Fetched || got.Output != want.Output {
		t.Errorf("%s: Plan bound %v, reference %v (err %v)", label, got, want, err)
	}
}

// TestNodeStatsSizeMatchesVersionUnderWrites is the node-side soak of
// size/version pairing: a coordinator applies one-tuple inserts to a
// one-node HTTP fleet while readers assert that the node's GET /healthz
// and the coordinator's Stats each report the size of the version they
// report, |D| = base + Version.
func TestNodeStatsSizeMatchesVersionUnderWrites(t *testing.T) {
	tb, _ := logBed(t)
	coord, _, urls := startCluster(t, tb, 1, testCooldown)
	if err := coord.Load(tb.build()); err != nil {
		t.Fatal(err)
	}
	const base, writes = 16, 150
	var done atomic.Bool
	var wg sync.WaitGroup
	for _, read := range []func() (int, uint64){
		func() (int, uint64) { return nodeHealth(t, urls[0]) },
		func() (int, uint64) { st := coord.Stats(); return st.Size, st.Version },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if size, version := read(); uint64(size) != base+version {
					t.Errorf("size %d paired with version %d", size, version)
					return
				}
			}
		}()
	}
	for i := int64(0); i < writes; i++ {
		delta := live.NewDelta(tb.schema)
		delta.MustInsert("R", iv(1000+i), iv(i))
		if _, err := coord.Apply(context.Background(), delta); err != nil {
			t.Error(err)
			break
		}
	}
	done.Store(true)
	wg.Wait()
	if size, version := nodeHealth(t, urls[0]); version != writes || size != base+writes {
		t.Fatalf("node after the writes: size %d, version %d", size, version)
	}
}

// nodeHealth reads a node's size and version from its GET /healthz.
// Safe to call from any goroutine: a failure is reported with Error and
// reads as size 0 at version 0.
func nodeHealth(t *testing.T, url string) (size int, version uint64) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Error(err)
		return 0, 0
	}
	defer resp.Body.Close()
	var h struct {
		Status  string `json:"status"`
		Size    int    `json:"size"`
		Version uint64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Errorf("GET %s/healthz: status %d, %+v (err %v)", url, resp.StatusCode, h, err)
	}
	return h.Size, h.Version
}
