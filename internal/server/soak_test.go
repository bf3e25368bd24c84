package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/value"
)

// soakBed is a two-relation schema crafted so snapshot tearing is
// OBSERVABLE on the wire: A and B each hold exactly one row under key
// "w", always carrying the same version value, and the served query
// joins them on that value. A request answered from one consistent
// snapshot returns exactly one row; a request that read A from one
// version and B from another returns zero rows. PR 4's Snapshot()
// pinning trick, restated as a black-box wire property.
func soakBed(t *testing.T, shards int) (core.Queryable, Catalog) {
	t.Helper()
	s := schema.MustNew(
		schema.MustRelation("A", "k", "x"),
		schema.MustRelation("B", "k", "x"),
	)
	a := access.NewSchema(
		access.NewConstraint("A", []schema.Attribute{"k"}, []schema.Attribute{"x"}, 1),
		access.NewConstraint("B", []schema.Attribute{"k"}, []schema.Attribute{"x"}, 1),
	)
	d := data.NewInstance(s)
	d.MustInsert("A", value.NewString("w"), value.NewString("v0"))
	d.MustInsert("B", value.NewString("w"), value.NewString("v0"))
	var eng core.Queryable
	var err error
	if shards > 1 {
		eng, err = shard.New(s, a, shard.Options{Shards: shards})
	} else {
		eng, err = core.New(s, a, core.Options{})
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(d); err != nil {
		t.Fatal(err)
	}
	q := &cq.CQ{Label: "Q", Free: []string{"x"}, Atoms: []cq.Atom{
		cq.NewAtom("A", cq.Const(value.NewString("w")), cq.Var("x")),
		cq.NewAtom("B", cq.Const(value.NewString("w")), cq.Var("x")),
	}}
	// The soak is only meaningful if Q runs on the bounded path (two
	// indexed fetches) — a scan would read one materialized instance.
	// Planning is data-independent, so an empty engine decides it.
	planner, err := core.New(s, a, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := planner.Plan(q); err != nil {
		t.Fatalf("soak query must be boundedly evaluable: %v", err)
	}
	return eng, Catalog{Schema: s, Access: a, Queries: map[string]*cq.CQ{"Q": q}}
}

// swapDelta moves both relations from version prev to version next in
// one atomic batch.
func swapDelta(prev, next int) string {
	return fmt.Sprintf("-\tA\tw\tv%d\n+\tA\tw\tv%d\n-\tB\tw\tv%d\n+\tB\tw\tv%d\n",
		prev, next, prev, next)
}

// TestSoakStreamingReadersUnderWriter runs N streaming readers against
// a writer advancing the dataset version through /v1/apply, for the
// single-node and a sharded engine. Every response must be internally
// consistent with exactly one snapshot version (exactly one row), and
// versions observed by one reader must never go backwards. After
// shutdown, no goroutines may linger. Run under -race in CI.
func TestSoakStreamingReadersUnderWriter(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			before := runtime.NumGoroutine()
			eng, cat := soakBed(t, shards)
			srv, err := New(eng, cat, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			client := ts.Client()

			const (
				readers  = 8
				queries  = 25
				versions = 50
			)
			var wg sync.WaitGroup
			errs := make(chan error, readers*queries+versions)

			wg.Add(1)
			go func() { // writer
				defer wg.Done()
				for i := 1; i <= versions; i++ {
					resp, err := client.Post(ts.URL+"/v1/apply", "text/tab-separated-values",
						strings.NewReader(swapDelta(i-1, i)))
					if err != nil {
						errs <- fmt.Errorf("apply v%d: %w", i, err)
						return
					}
					body := readAll(t, resp)
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("apply v%d: status %d: %s", i, resp.StatusCode, body)
						return
					}
				}
			}()

			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					lastSeen := -1
					for n := 0; n < queries; n++ {
						resp, err := client.Post(ts.URL+"/v1/query", "application/json",
							strings.NewReader(`{"query":"Q"}`))
						if err != nil {
							errs <- err
							return
						}
						body := readAll(t, resp)
						if resp.StatusCode != http.StatusOK {
							errs <- fmt.Errorf("query: status %d: %s", resp.StatusCode, body)
							return
						}
						lines := strings.Split(strings.TrimSpace(body), "\n")
						if len(lines) != 1 || lines[0] == "" {
							// 0 rows = the A and B fetches saw different
							// snapshot versions; >1 = a torn swap.
							errs <- fmt.Errorf("torn read: %d rows, want exactly 1: %q", len(lines), body)
							continue
						}
						var v int
						if _, err := fmt.Sscanf(lines[0], `{"x":"v%d"}`, &v); err != nil {
							errs <- fmt.Errorf("unexpected row %q: %v", lines[0], err)
							continue
						}
						if v < 0 || v > versions {
							errs <- fmt.Errorf("impossible version v%d", v)
						}
						if v < lastSeen {
							errs <- fmt.Errorf("snapshot went backwards: v%d after v%d", v, lastSeen)
						}
						lastSeen = v
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			// The writer finished: the final version must be fully visible.
			resp := postQuery(t, ts, `{"query":"Q"}`)
			if body := readAll(t, resp); !strings.Contains(body, "v"+strconv.Itoa(versions)) {
				t.Errorf("final version v%d not visible: %s", versions, body)
			}

			// Graceful shutdown drains everything; nothing may leak.
			ts.Close()
			client.CloseIdleConnections()
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					var buf strings.Builder
					pprof.Lookup("goroutine").WriteTo(&buf, 1)
					t.Fatalf("goroutines leaked after shutdown: %d -> %d\n%s",
						before, runtime.NumGoroutine(), buf.String())
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}
