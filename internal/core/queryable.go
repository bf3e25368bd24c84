package core

import (
	"context"

	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/live"
)

// Queryable is the serving surface shared by the in-memory Engine and
// the partitioned internal/shard engine: what internal/server (and the
// benchmark harness) calls, and nothing more. Checks, plans, baselines
// and specialization stay on the concrete engines that offer them.
//
// The contract every implementation honors:
//
//   - Query serves CQs, UCQs and ∃FO⁺ through one snapshot-consistent
//     view, with budgets, fallbacks, deadlines and streaming.
//   - Apply is all-or-nothing: a delta that would violate any
//     cardinality bound is rejected with a *live.ViolationError and has
//     no visible effect anywhere.
//   - Load replaces the dataset, validating D |= A first.
//   - Stats/CacheStats aggregate across whatever the engine is made of.
type Queryable interface {
	Load(d *data.Instance) error
	Apply(ctx context.Context, delta *live.Delta) (*live.Result, error)
	Query(ctx context.Context, q Query, opts ...QueryOption) (*Result, error)
	Explain(q *cq.CQ, params []string) (string, error)
	Stats() EngineStats
	CacheStats() CacheStats
}

// The in-memory engine is a Queryable.
var _ Queryable = (*Engine)(nil)
