package bench

// BenchmarkQ0Query pins the end-to-end serving cost of the standard
// bounded query — template key, plan-cache hit, bounded execution,
// result assembly — on the accidents workload. BenchmarkQ0QueryMix
// serves 64 Q0 variants that differ only in (district, date): they share
// one template entry, so nearly every hit also rebinds the cached plan
// to the request's constants (plan.Bind). BenchmarkQ0Execute pins the
// executor alone (plan.ExecuteSource on the prebuilt plan), so the
// executor's bytes are not mixed with the key, lookup and rebinding core
// pays per request. BenchmarkPath2Execute pins the executor on the wide
// served shape: a streamed two-hop walk over the social workload with
// hundreds of answer rows. All four report allocations without
// -benchmem: B/op and allocs/op are the per-query allocation budget, the
// first thing that creeps when a hot-path change starts boxing rows or
// rebuilding per-step state again; TestQ0QueryAllocCeiling holds Q0's.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/workload"
)

func q0Engine(b testing.TB) *core.Engine {
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

// TestQ0QueryAllocCeiling holds BenchmarkQ0Query's allocation budget: a
// served Q0 on a warm engine allocates at most 24 times.
func TestQ0QueryAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop puts at random")
	}
	eng := q0Engine(t)
	q := workload.Q0()
	ctx := context.Background()
	avg := testing.AllocsPerRun(200, func() {
		if _, err := eng.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 24 {
		t.Fatalf("Q0 allocates %.0f times per query, want <= 24", avg)
	}
}

// path2Engine loads the social workload at the serving benchmark's full
// scale and degree caps, and plans path2 anchored at the first person
// whose two-hop answer has 400 to 450 rows, about the mean answer of the
// wide served workload (≈ 425 rows).
func path2Engine(b testing.TB) (*core.Engine, *plan.Plan) {
	b.Helper()
	soc, err := workload.GenerateSocial(workload.SocialConfig{People: 20000, MaxFriends: 50, MaxLikes: 10, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.New(soc.Schema, soc.Access, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Load(soc.Instance); err != nil {
		b.Fatal(err)
	}
	src := plan.NewSource(eng.Indexed())
	for me := int64(1); me <= 20000; me++ {
		p, _, err := eng.Plan(workload.PatternQueries(me)[1])
		if err != nil {
			b.Fatal(err)
		}
		tab, _, err := plan.ExecuteSource(context.Background(), p, src, plan.ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if n := tab.Len(); n >= 400 && n <= 450 {
			return eng, p
		}
	}
	b.Fatal("no person has a two-hop answer of 400 to 450 rows")
	return nil, nil
}

func BenchmarkPath2Execute(b *testing.B) {
	eng, p := path2Engine(b)
	src := plan.NewSource(eng.Indexed())
	ctx := context.Background()
	yield := func(data.Tuple) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.ExecuteStreamSource(ctx, p, src, yield); err != nil {
			b.Fatal(err)
		}
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool
