package shard

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/live"
	"repro/internal/workload"
)

// oneAccidents generates the accidents instance the one-partition
// benchmarks load; every call returns an identical, fresh instance.
func oneAccidents(tb testing.TB, days int) *workload.Accidents {
	tb.Helper()
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: days, AccidentsPerDay: 40, MaxVehicles: 6, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return acc
}

// loader is what the one-partition benchmarks need of either engine.
type loader interface {
	Load(d *data.Instance) error
	Query(ctx context.Context, q core.Query, opts ...core.QueryOption) (*core.Result, error)
}

// newOne builds an in-memory core.Engine ("core") or a one-partition
// fleet ("shard-k1") and loads acc into it.
func newOne(tb testing.TB, kind string, acc *workload.Accidents) loader {
	tb.Helper()
	var eng loader
	var err error
	if kind == "core" {
		eng, err = core.New(acc.Schema, acc.Access, core.Options{})
	} else {
		eng, err = New(acc.Schema, acc.Access, Options{Shards: 1})
	}
	if err != nil {
		tb.Fatal(err)
	}
	if err := eng.Load(acc.Instance); err != nil {
		tb.Fatal(err)
	}
	return eng
}

// TestOnePartitionCopiesNothing pins the K = 1 short paths by pointer:
// Load hands the loaded instance through as the partition's share and
// the scan union, and after an Apply the union is the partition's own
// snapshot instance — no split copy, no merge.
func TestOnePartitionCopiesNothing(t *testing.T) {
	acc := oneAccidents(t, 2)
	e, err := New(acc.Schema, acc.Access, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := acc.Instance
	if err := e.Load(d); err != nil {
		t.Fatal(err)
	}
	part := e.parts[0].(*Local)
	if ix, _ := part.Snapshot(); ix.Instance != d {
		t.Fatal("the partition holds a copy of the loaded instance")
	}
	if e.Instance() != d {
		t.Fatal("Instance() after Load is not the loaded instance")
	}
	delta := live.NewDelta(acc.Schema)
	delta.MustInsert("Accident", iv(900001), sv("Soho"), sv("7/7/1997"))
	if _, err := e.Apply(context.Background(), delta); err != nil {
		t.Fatal(err)
	}
	ix, v := part.Snapshot()
	if v != 1 {
		t.Fatalf("partition at version %d after one Apply", v)
	}
	if e.Instance() != ix.Instance {
		t.Fatal("Instance() after Apply is not the partition's snapshot instance")
	}
}

// TestRecoverSingleNodeDataDir recovers a data directory laid out the
// way single-node deployments have always written it — the store in the
// directory itself, a base checkpoint at version 0, then one WAL record
// per applied delta — through a one-partition fleet: it must resume at
// version 2, answer Q0 exactly as an in-memory replay does, and accept
// the next delta as version 3.
func TestRecoverSingleNodeDataDir(t *testing.T) {
	ctx := context.Background()
	acc := oneAccidents(t, 2)
	stream := func(acc *workload.Accidents) *workload.AccidentStream {
		st, err := workload.NewAccidentStream(acc, workload.AccidentStreamConfig{
			InsertAccidents: 3, DeleteAccidents: 1, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	dir := t.TempDir()
	st, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, _, err := access.BuildIndexed(acc.Access, acc.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteCheckpoint(acc.Schema, &durable.State{Instance: acc.Instance, Indexed: ix}); err != nil {
		t.Fatal(err)
	}
	written := stream(acc)
	for v := uint64(1); v <= 2; v++ {
		if err := st.AppendDelta(v, written.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	racc := oneAccidents(t, 2)
	replay := stream(racc)
	ref, err := core.New(racc.Schema, racc.Access, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Load(racc.Instance); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := ref.Apply(ctx, replay.Next()); err != nil {
			t.Fatal(err)
		}
	}

	e, err := New(acc.Schema, acc.Access, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := e.Durable(ctx, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.CloseDurable()
	if !restored || e.Stats().Version != 2 {
		t.Fatalf("restored=%v at version %d, want the directory's version 2", restored, e.Stats().Version)
	}
	check := func() {
		t.Helper()
		want, err := ref.Query(ctx, workload.Q0())
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Query(ctx, workload.Q0())
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, want, got)
		if e.Stats().Size != ref.Stats().Size {
			t.Fatalf("recovered |D| %d, in-memory replay %d", e.Stats().Size, ref.Stats().Size)
		}
	}
	check()
	next := replay.Next()
	if _, err := e.Apply(ctx, next); err != nil {
		t.Fatalf("recovered fleet rejected the next delta: %v", err)
	}
	if _, err := ref.Apply(ctx, next); err != nil {
		t.Fatal(err)
	}
	if v := e.Stats().Version; v != 3 {
		t.Fatalf("next delta committed as version %d, want 3", v)
	}
	check()
}

// BenchmarkQ0OnePartition serves Q0 over 30 days of accidents from the
// in-memory core.Engine and from a one-partition fleet: the fleet of one
// must cost what the single engine costs.
//
//	go test ./internal/shard -run '^$' -bench Q0OnePartition -benchtime=3000x
func BenchmarkQ0OnePartition(b *testing.B) {
	q := workload.Q0()
	for _, kind := range []string{"core", "shard-k1"} {
		b.Run(kind, func(b *testing.B) {
			eng := newOne(b, kind, oneAccidents(b, 30))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadHeapOnePartition reports the live heap (heap-MB) after
// loading 300 days of accidents into each engine kind: a fleet of one
// must hold no second copy of the data it was handed. Each iteration
// generates the data afresh, so run it with -benchtime=1x.
func BenchmarkLoadHeapOnePartition(b *testing.B) {
	for _, kind := range []string{"core", "shard-k1"} {
		b.Run(kind, func(b *testing.B) {
			var mb float64
			for i := 0; i < b.N; i++ {
				eng := newOne(b, kind, oneAccidents(b, 300))
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				runtime.KeepAlive(eng)
				mb = float64(ms.HeapAlloc) / (1 << 20)
			}
			b.ReportMetric(mb, "heap-MB")
		})
	}
}
