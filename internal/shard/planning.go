package shard

import (
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/cq"
	"repro/internal/plan"
	"repro/internal/specialize"
)

// Planning is the data-independent surface of an engine that serves
// data a core.Engine does not hold itself: the coordinator and a
// partition server both embed it, so Explain, IsCovered, Plan,
// Specialize, CacheStats and the Stats assembly are written once, as
// delegations to one shared planner. It keeps no |D| of its own: each
// call reads size and version from the embedder's published snapshot.
type Planning struct {
	// Planner plans, admits and serves (QueryView) for the embedder;
	// there is one plan cache however many partitions hold the data.
	Planner   *core.Engine
	published func() (size int, version uint64)
}

// NewPlanning delegates to planner; published reports the embedder's
// current |D| and version from one snapshot (0, 0 before data arrives).
func NewPlanning(planner *core.Engine, published func() (size int, version uint64)) Planning {
	return Planning{Planner: planner, published: published}
}

// Explain reports coverage, verdict, plan and bound like core's.
func (p *Planning) Explain(q *cq.CQ, params []string) (string, error) {
	size, _ := p.published()
	return p.Planner.ExplainAt(q, params, size)
}

// IsCovered runs the PTIME covered-query check (data-independent).
func (p *Planning) IsCovered(q *cq.CQ) (*cover.Result, error) { return p.Planner.IsCovered(q) }

// Plan synthesizes the bounded plan with its static bound.
func (p *Planning) Plan(q *cq.CQ) (*plan.Plan, plan.Bound, error) {
	size, _ := p.published()
	return p.Planner.PlanAt(q, size)
}

// Specialize solves QSP (data-independent).
func (p *Planning) Specialize(q *cq.CQ, X []string, k int) (*specialize.Result, error) {
	return p.Planner.Specialize(q, X, k)
}

// CacheStats reports the planner's plan-cache counters.
func (p *Planning) CacheStats() core.CacheStats { return p.Planner.CacheStats() }

// EngineStats assembles the embedder's core.EngineStats: every query is
// served through the planner's QueryView, so its request and access
// counters cover whatever the embedder is made of, and size and version
// come from one published snapshot.
func (p *Planning) EngineStats(shards int, applies uint64) core.EngineStats {
	ps := p.Planner.Stats()
	size, version := p.published()
	return core.EngineStats{
		Size:    size,
		Shards:  shards,
		Queries: ps.Queries,
		Applies: applies,
		Fetched: ps.Fetched,
		Scanned: ps.Scanned,
		Version: version,
	}
}
