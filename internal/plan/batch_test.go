package plan

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/index"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workload"
)

// The batch contract of a fetch step: the executor resolves a step's
// whole distinct-key set in one FetchAll, so a BatchFetcher sees exactly
// one FetchBatch per step, and its error aborts the query.

// batchSource wraps a Source so that every fetcher it resolves is a
// BatchFetcher recording each call's key set; failAt > 0 makes the
// failAt-th call fail with fail.
type batchSource struct {
	Source
	calls  []batchCall
	failAt int
	fail   error
}

type batchCall struct {
	c    access.Constraint
	keys []string
}

func (s *batchSource) FetcherFor(c access.Constraint) Fetcher {
	if f := s.Source.FetcherFor(c); f != nil {
		return batchFetcher{f: f, c: c, s: s}
	}
	return nil
}

type batchFetcher struct {
	f Fetcher
	c access.Constraint
	s *batchSource
}

func (f batchFetcher) FetchBatch(ctx context.Context, keys [][]byte, out []index.Bucket) error {
	call := batchCall{c: f.c}
	for _, k := range keys {
		call.keys = append(call.keys, string(k))
	}
	f.s.calls = append(f.s.calls, call)
	if len(f.s.calls) == f.s.failAt {
		return f.s.fail
	}
	return FetchAll(ctx, f.f, keys, out)
}

// FetchBytes panics: the executor must reach a BatchFetcher only through
// FetchBatch.
func (batchFetcher) FetchBytes([]byte) index.Bucket {
	panic("FetchBytes called on a batch fetcher")
}

// perKeySource wraps a Source so that every fetcher it resolves has
// FetchBytes only — the shape of a recording source that copies each
// probed key — so the executor falls back to the per-key loop.
type perKeySource struct{ Source }

type perKeyFetcher struct{ f Fetcher }

func (s perKeySource) FetcherFor(c access.Constraint) Fetcher {
	if f := s.Source.FetcherFor(c); f != nil {
		return perKeyFetcher{f}
	}
	return nil
}

func (f perKeyFetcher) FetchBytes(k []byte) index.Bucket {
	return f.f.FetchBytes(append([]byte(nil), k...))
}

// dupKeysPlan is a plan whose second fetch reads an input with many rows
// per X-value: R(A -> C,B) fans one A out to wideRows rows over seven B
// values, and R(B -> A) is then fetched on B over those rows. The bucket
// is ordered by C, so B first occurs in the order 0 5 3 1 6 4 2 — not
// sorted.
func dupKeysPlan(t *testing.T) (*Plan, *access.Indexed) {
	t.Helper()
	sc := schema.MustNew(schema.MustRelation("R", "A", "B", "C"))
	byA := access.NewConstraint("R", attrs("A"), attrs("C", "B"), wideRows)
	byB := access.NewConstraint("R", attrs("B"), attrs("A"), 1)
	d := data.NewInstance(sc)
	for i := int64(0); i < wideRows; i++ {
		d.MustInsert("R", iv(0), iv((i*5)%7), iv(i))
	}
	ix, viols, err := access.BuildIndexed(access.NewSchema(byA, byB), d)
	if err != nil || len(viols) > 0 {
		t.Fatalf("BuildIndexed: %v %v", viols, err)
	}
	return &Plan{Label: "dup", Steps: []Op{
		lit("a", iv(0)),
		FetchOp{Input: 0, Constraint: byA, XCols: []string{"a"}, YOut: []string{"c", "b"}},
		FetchOp{Input: 1, Constraint: byB, XCols: []string{"b"}, YOut: []string{"a"}},
	}}, ix
}

// TestFetchStepIsOneBatch pins the batch contract on the duplicate-key
// plan, Q0, the social path2 walk and a UCQ splice: every fetch step
// with input makes exactly one FetchBatch, carrying the step's distinct
// keys in first-occurrence order over its input rows — recomputed here
// from the intermediate tables — and a batch fetcher, a FetchBytes-only
// one and the bare index all give identical rows and ExecStats.
func TestFetchStepIsOneBatch(t *testing.T) {
	ctx := context.Background()
	dup, dupIx := dupKeysPlan(t)
	acc, accSrc := accidentsSource(t, 8, 1)
	path2, socSrc := path2Plan(t)
	plans := map[string]struct {
		p   *Plan
		src Source
	}{
		"dup":   {dup, NewSource(dupIx)},
		"Q0":    {builtPlan(t, workload.Q0(), acc.Access, acc.Schema), accSrc},
		"path2": {path2, socSrc},
		"ucq":   {q0UnionPlan(t, acc), accSrc},
	}
	for name, c := range plans {
		t.Run(name, func(t *testing.T) {
			want, wantStats, err := ExecuteSource(ctx, c.p, c.src, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for srcName, src := range map[string]Source{"per-key": perKeySource{c.src}, "batch": &batchSource{Source: c.src}} {
				got, stats, err := ExecuteSource(ctx, c.p, src, ExecOptions{})
				if err != nil {
					t.Fatalf("%s: %v", srcName, err)
				}
				if render(got.Rows) != render(want.Rows) || *stats != *wantStats {
					t.Fatalf("%s: stats %+v, rows\n%s\nwant %+v, rows\n%s", srcName, *stats, render(got.Rows), *wantStats, render(want.Rows))
				}
			}

			// The expected key set of each fetch step, from its input table.
			st := new(execState)
			if _, _, err := st.run(ctx, c.p, c.src, nil); err != nil {
				t.Fatal(err)
			}
			var wantCalls []batchCall
			for _, op := range c.p.Steps {
				o, ok := op.(FetchOp)
				if !ok {
					continue
				}
				in := st.results[o.Input]
				xpos, err := in.appendColIndexes(nil, o.XCols)
				if err != nil {
					t.Fatal(err)
				}
				call := batchCall{c: o.Constraint}
				seen := map[string]bool{}
				for _, row := range in.Rows {
					if k := string(value.AppendKeyAt(nil, row, xpos)); !seen[k] {
						seen[k] = true
						call.keys = append(call.keys, k)
					}
				}
				if len(call.keys) > 0 {
					wantCalls = append(wantCalls, call)
				}
			}
			st.release()
			if name == "dup" && (len(wantCalls) != 2 || len(wantCalls[1].keys) != 7 || slices.IsSorted(wantCalls[1].keys)) {
				t.Fatalf("fixture: want a second step of 7 distinct keys out of order, got %+v", wantCalls)
			}

			rec := &batchSource{Source: c.src}
			if _, _, err := ExecuteSource(ctx, c.p, rec, ExecOptions{}); err != nil {
				t.Fatal(err)
			}
			if len(rec.calls) != len(wantCalls) {
				t.Fatalf("%d FetchBatch calls, want one per fetch step with input: %d", len(rec.calls), len(wantCalls))
			}
			keys := 0
			for i, call := range rec.calls {
				w := wantCalls[i]
				if call.c.String() != w.c.String() || !slices.Equal(call.keys, w.keys) {
					t.Fatalf("call %d: %s with %q, want %s with %q", i, call.c, call.keys, w.c, w.keys)
				}
				keys += len(call.keys)
			}
			if int64(keys) != wantStats.FetchKeys {
				t.Fatalf("batches carried %d keys, FetchKeys = %d", keys, wantStats.FetchKeys)
			}
		})
	}
}

// peerLost stands for a remote partition's failure.
type peerLost struct{ peer int }

func (e *peerLost) Error() string { return fmt.Sprintf("peer %d lost", e.peer) }

// TestFetchBatchErrorAbortsQuery pins the failure contract: a FetchBatch
// error aborts the run at its step, named and wrapped so errors.As still
// reaches the cause, in both execution modes, with no row yielded from
// the failed step on.
func TestFetchBatchErrorAbortsQuery(t *testing.T) {
	ctx := context.Background()
	acc, src := accidentsSource(t, 8, 1)
	p := builtPlan(t, workload.Q0(), acc.Access, acc.Schema)
	second := -1
	for i, n := 0, 0; i < len(p.Steps); i++ {
		if _, ok := p.Steps[i].(FetchOp); ok {
			if n++; n == 2 {
				second = i
				break
			}
		}
	}
	prefix := fmt.Sprintf("plan: step T%d (%s): ", second, p.Steps[second])
	check := func(mode string, err error) {
		t.Helper()
		var lost *peerLost
		if err == nil || !strings.HasPrefix(err.Error(), prefix) || !errors.As(err, &lost) || lost.peer != 3 {
			t.Fatalf("%s: err = %v, want %q wrapping peer 3 lost", mode, err, prefix)
		}
	}

	fail := func() *batchSource { return &batchSource{Source: src, failAt: 2, fail: &peerLost{3}} }
	tab, stats, err := ExecuteSource(ctx, p, fail(), ExecOptions{})
	check("materialised", err)
	if tab != nil || stats == nil {
		t.Fatalf("materialised: table %v, stats %v; want no table and the stats so far", tab, stats)
	}
	yielded := 0
	_, err = ExecuteStreamSource(ctx, p, fail(), func(data.Tuple) bool { yielded++; return true })
	check("streamed", err)
	if yielded != 0 {
		t.Fatalf("streamed: %d rows yielded past a failed fetch", yielded)
	}
}

// TestFetchAllMakesNoCallForNoKeys pins FetchAll's edge: an empty key set
// reaches neither FetchBatch nor FetchBytes.
func TestFetchAllMakesNoCallForNoKeys(t *testing.T) {
	rec := &batchSource{failAt: 1, fail: errors.New("called")}
	f := batchFetcher{s: rec}
	if err := FetchAll(context.Background(), f, nil, nil); err != nil || len(rec.calls) != 0 {
		t.Fatalf("FetchAll over no keys: %v, %d calls", err, len(rec.calls))
	}
}

// TestFetchScratchReleasesBuckets pins the pooled state's hygiene: after
// a run is trimmed, the fetch's bucket scratch no longer references the
// run's index.
func TestFetchScratchReleasesBuckets(t *testing.T) {
	p, ix := dupKeysPlan(t)
	st := new(execState)
	if _, _, err := st.run(context.Background(), p, NewSource(ix), nil); err != nil {
		t.Fatal(err)
	}
	if len(st.fetch.buckets) == 0 {
		t.Fatal("fixture: the run fetched nothing")
	}
	st.trim()
	for i, b := range st.fetch.buckets[:cap(st.fetch.buckets)] {
		if b.Len() != 0 {
			t.Fatalf("bucket scratch %d still holds %d rows after trim", i, b.Len())
		}
	}
}
