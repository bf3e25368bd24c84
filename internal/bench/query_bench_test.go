package bench

// BenchmarkQ0Query pins the end-to-end serving cost of the standard
// bounded query — template key, plan-cache hit, bounded execution,
// result assembly — on the accidents workload. BenchmarkQ0QueryMix
// serves 64 Q0 variants that differ only in (district, date): they share
// one template entry, so nearly every hit also rebinds the cached plan
// to the request's constants (plan.Bind). BenchmarkQ0Execute pins the
// executor alone (plan.ExecuteSource on the prebuilt plan), so the
// executor's bytes are not mixed with the key, lookup and rebinding core
// pays per request. All three report allocations without -benchmem: B/op
// and allocs/op are the per-query allocation budget, the first thing
// that creeps when a hot-path change starts boxing rows or rebuilding
// per-step state again.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/workload"
)

func q0Engine(b *testing.B) *core.Engine {
	b.Helper()
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: 30, AccidentsPerDay: 40, MaxVehicles: 6, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.New(acc.Schema, acc.Access, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Load(acc.Instance); err != nil {
		b.Fatal(err)
	}
	return eng
}

func BenchmarkQ0Query(b *testing.B) {
	eng := q0Engine(b)
	q := workload.Q0()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQ0QueryMix(b *testing.B) {
	eng := q0Engine(b)
	nd := len(workload.Districts)
	qs := make([]*cq.CQ, 64)
	for i := range qs {
		q := workload.Q0()
		q.Atoms[0].Args[1] = cq.Const(value.NewString(workload.Districts[i%nd]))
		q.Atoms[0].Args[2] = cq.Const(value.NewString(workload.DateName(i / nd)))
		qs[i] = q
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(context.Background(), qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQ0Execute(b *testing.B) {
	eng := q0Engine(b)
	p, _, err := eng.Plan(workload.Q0())
	if err != nil {
		b.Fatal(err)
	}
	src := plan.NewSource(eng.Indexed())
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := plan.ExecuteSource(ctx, p, src, plan.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
