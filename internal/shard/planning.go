package shard

import (
	"sync/atomic"

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
// delegations to one shared planner at the size the embedder publishes.
type Planning struct {
	// Planner plans, admits and serves (QueryView) for the embedder;
	// there is one plan cache however many partitions hold the data.
	Planner *core.Engine
	size    atomic.Int64
}

// SetSize records |D| of the data now planned for — the input to
// general-form cardinality bounds s(|D|) — and re-stamps the planner's
// cached bounds at it. The embedder calls it whenever it publishes a
// version.
func (p *Planning) SetSize(size int) {
	p.size.Store(int64(size))
	p.Planner.SetSizeHint(size)
}

// Size is the last published |D|; 0 before data arrives.
func (p *Planning) Size() int { return int(p.size.Load()) }

// Explain reports coverage, verdict, plan and bound like core's.
func (p *Planning) Explain(q *cq.CQ, params []string) (string, error) {
	return p.Planner.ExplainAt(q, params, p.Size())
}

// IsCovered runs the PTIME covered-query check (data-independent).
func (p *Planning) IsCovered(q *cq.CQ) (*cover.Result, error) { return p.Planner.IsCovered(q) }

// Plan synthesizes the bounded plan with its static bound.
func (p *Planning) Plan(q *cq.CQ) (*plan.Plan, plan.Bound, error) {
	return p.Planner.PlanAt(q, p.Size())
}

// Specialize solves QSP (data-independent).
func (p *Planning) Specialize(q *cq.CQ, X []string, k int) (*specialize.Result, error) {
	return p.Planner.Specialize(q, X, k)
}

// CacheStats reports the planner's plan-cache counters.
func (p *Planning) CacheStats() core.CacheStats { return p.Planner.CacheStats() }

// EngineStats assembles the embedder's core.EngineStats: every query is
// served through the planner's QueryView, so its request and access
// counters cover whatever the embedder is made of.
func (p *Planning) EngineStats(shards int, applies, version uint64) core.EngineStats {
	ps := p.Planner.Stats()
	return core.EngineStats{
		Size:    p.Size(),
		Shards:  shards,
		Queries: ps.Queries,
		Applies: applies,
		Fetched: ps.Fetched,
		Scanned: ps.Scanned,
		Version: version,
	}
}
