package bench

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/plan"
	"repro/internal/workload"
)

// Path3Query is the 3-hop friend walk anchored at a person constant —
// the serving-layer stress query: its final fetch fans out over thousands
// of distinct keys.
func Path3Query(me int64) *cq.CQ {
	return &cq.CQ{
		Label: "path3", Free: []string{"h"},
		Atoms: []cq.Atom{
			cq.NewAtom("Friend", cq.Var("me"), cq.Var("f")),
			cq.NewAtom("Friend", cq.Var("f"), cq.Var("g")),
			cq.NewAtom("Friend", cq.Var("g"), cq.Var("h")),
		},
		Eqs: []cq.Eq{{L: cq.Var("me"), R: cq.Const(iv(me))}},
	}
}

// E11Concurrency measures the serving layer added on top of the paper's
// pipeline: (a) the plan cache — repeat-query planning latency, cold vs
// cached — and (b) the executor's hot path — time, throughput and memory
// pressure of one bounded-plan execution on a fan-out-heavy social query.
func E11Concurrency(people int) (*Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "serving layer — plan cache and bounded execution",
		Header: []string{"setting", "time/op (µs)", "speedup"},
	}
	soc, err := workload.GenerateSocial(workload.SocialConfig{
		People: people, MaxFriends: 50, MaxLikes: 10, Seed: 2,
	})
	if err != nil {
		return nil, err
	}
	q := Path3Query(1)

	// (a) Plan cache: cold synthesis vs cached lookup.
	cold, err := core.New(soc.Schema, soc.Access, core.Options{PlanCache: -1})
	if err != nil {
		return nil, err
	}
	if err := cold.Load(soc.Instance); err != nil {
		return nil, err
	}
	warm, err := core.New(soc.Schema, soc.Access, core.Options{})
	if err != nil {
		return nil, err
	}
	if err := warm.Load(soc.Instance); err != nil {
		return nil, err
	}
	if _, _, err := warm.Plan(q); err != nil { // prime the cache
		return nil, err
	}
	const planReps = 50
	timePlan := func(eng *core.Engine) (float64, error) {
		start := time.Now()
		for i := 0; i < planReps; i++ {
			if _, _, err := eng.Plan(q); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Microseconds()) / planReps, nil
	}
	tCold, err := timePlan(cold)
	if err != nil {
		return nil, err
	}
	tHit, err := timePlan(warm)
	if err != nil {
		return nil, err
	}
	t.AddRow("plan path3 (cold)", tCold, 1.0)
	t.AddRow("plan path3 (cached)", tHit, tCold/maxF(tHit, 0.01))
	t.AddMetric("plan_cold_us", tCold, "us")
	t.AddMetric("plan_cached_us", tHit, "us")
	t.AddMetric("plan_cache_speedup", tCold/maxF(tHit, 0.01), "x")

	// (b) Execution: answer rows per second, heap allocated per execution
	// and GC stop-the-world pause attributable to each execution.
	p, _, err := warm.Plan(q)
	if err != nil {
		return nil, err
	}
	ix := warm.Indexed()
	const execReps = 5
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var tbl *plan.Table
	for r := 0; r < execReps; r++ {
		if tbl, _, err = plan.Execute(p, ix); err != nil {
			return nil, err
		}
	}
	el := float64(time.Since(start).Microseconds()) / execReps
	runtime.ReadMemStats(&ms1)
	t.AddRow("exec path3", el, "-")
	t.AddMetric("exec_1worker_us", el, "us")
	t.AddMetric("exec_rows_per_sec", float64(tbl.Len())/(el/1e6), "rows/s")
	t.AddMetric("exec_alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/execReps/(1<<20), "mb")
	t.AddMetric("exec_gc_pause_us", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/execReps/1e3, "us")
	t.Notes = append(t.Notes,
		"cached planning must be orders of magnitude below cold synthesis — that is the repeat-query win")
	return t, nil
}
