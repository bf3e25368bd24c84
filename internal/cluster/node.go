package cluster

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/shard"
)

// Node is one shard server: a local partition (shard.Local — the same
// state machine an in-process fleet runs) plus InternalHandler, the
// /v1/internal/* wire a remote coordinator drives it through, plus the
// read-only /v1/* surface over its share (it implements core.Queryable
// through the same planner machinery as every other engine). Direct
// writes are refused — Apply through the coordinator.
type Node struct {
	Schema *schema.Schema
	Access *access.Schema
	shard.Planning

	id, k    int
	part     *shard.Local
	place    *shard.Placement
	internal http.Handler
}

var _ core.Queryable = (*Node)(nil)

// NewNode builds shard server id of k over the shared catalog.
func NewNode(s *schema.Schema, a *access.Schema, id, k int, opts Options) (*Node, error) {
	place, err := shard.NewPlacement(s, a, k, opts.PartitionKeys)
	if err != nil {
		return nil, err
	}
	part, err := shard.NewLocal(s, a, id, k)
	if err != nil {
		return nil, err
	}
	planner, err := core.New(s, a, opts.Core)
	if err != nil {
		return nil, err
	}
	n := &Node{Schema: s, Access: a, id: id, k: k, part: part, place: place}
	n.Planner = planner
	part.OnPublish = n.SetSize
	n.internal = newPartitionHandler(part, s, a)
	return n, nil
}

// InternalHandler returns the /v1/internal/* surface the coordinator
// drives: status, versioned fetch/dump reads, and the staged two-phase
// write protocol (stage → commit/abort, plus the group-measurement and
// rollback endpoints the global validation and failure repair use).
// Mount it via server.Options.Internal so it shares the node's
// listener, admission-exempt: internal traffic must not compete with
// public queries for admission slots, or a busy node would deadlock its
// own coordinator.
func (n *Node) InternalHandler() http.Handler { return n.internal }

func (n *Node) errNoInstance() error {
	return fmt.Errorf("cluster: shard %d has no instance loaded", n.id)
}

// Load filters d down to this node's partition and installs it at
// version 0. Every node in a fleet can be pointed at the same dataset;
// each keeps exactly its ShardOf share. Local cardinality violations
// are NOT checked here — bounds hold at the global |D|, which only the
// coordinator sees.
func (n *Node) Load(d *data.Instance) error {
	sub, err := n.place.Share(d, n.id)
	if err != nil {
		return err
	}
	ix, _, err := access.BuildIndexed(n.Access, sub)
	if err != nil {
		return err
	}
	return n.part.Load(context.Background(), ix)
}

// Apply refuses: writes go through the coordinator's two-phase global
// validation — a node cannot validate cardinality bounds it only holds
// a partition of.
func (n *Node) Apply(ctx context.Context, delta *live.Delta) (*live.Result, error) {
	return nil, &NotCoordinatorError{Shard: n.id}
}

// Query serves q over this node's partition, through the same planner,
// admission and streaming machinery as every other engine. Answers
// cover the local share only — the operational surface for inspecting
// one shard; whole-dataset answers come from the coordinator.
func (n *Node) Query(ctx context.Context, q core.Query, opts ...core.QueryOption) (*core.Result, error) {
	ix, _ := n.part.Snapshot()
	if ix == nil {
		return nil, n.errNoInstance()
	}
	v := &core.View{
		Size:   ix.Instance.Size(),
		Source: plan.NewSource(ix),
		Instance: func(context.Context) (*data.Instance, error) {
			return ix.Instance, nil
		},
	}
	return n.Planner.QueryView(ctx, q, v, opts...)
}

// Stats reports the node's local share: size is the partition's, Shards
// the cluster's K, Version the node's committed version, Applies the
// transactions it committed.
func (n *Node) Stats() core.EngineStats {
	_, version := n.part.Snapshot()
	return n.EngineStats(n.k, n.part.Commits(), version)
}

// Durable attaches a durability directory: WAL + checkpoints for this
// node's partition, recovered on restart exactly like an in-process
// partition (the coordinator reconciles any cross-node version skew at
// attach).
func (n *Node) Durable(ctx context.Context, dir string, hook durable.Hook) (restored bool, err error) {
	return n.part.Durable(ctx, dir, hook)
}

// Checkpoint persists the current snapshot and compacts the WAL behind
// it. durable.ErrNotDurable if Durable was never called.
func (n *Node) Checkpoint(ctx context.Context) (uint64, error) { return n.part.Checkpoint(ctx) }

// CloseDurable detaches and closes the durable store. Safe to call when
// durability was never enabled.
func (n *Node) CloseDurable() error { return n.part.CloseDurable() }
