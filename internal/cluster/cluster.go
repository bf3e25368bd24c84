// Package cluster puts internal/shard's partitions behind a network:
// the transport of a networked fleet, and nothing of its protocol. The
// coordinator — placement, two-phase Apply, global validation, Attach,
// route/scatter reads — is shard.Engine, written once against
// shard.Partition; this package supplies the two halves that carry a
// Partition across a network and back:
//
//   - peerClient IS a shard.Partition whose methods are calls on
//     persistent framed connections to a shard node (client.go,
//     wire.go), so New is shard.NewCoordinator over K of them;
//   - Node owns a shard.Local — the same partition state machine an
//     in-process fleet runs — and serves it over that wire, upgraded
//     from HTTP on the node's one listener (InternalHandler, node.go,
//     handler.go), with its own /healthz, /metrics and /v1/checkpoint.
//     A node is a partition, not an engine: every other public endpoint
//     answers 421 not_coordinator, because reads over one share would
//     look exact while covering part of the data, and writes need the
//     coordinator's global validation.
//
// The partition function is shard.ShardOf over the partition keys both
// sides derive from the shared catalog, so a tuple lives on the same
// shard whether the deployment is in-process or networked, and the
// coordinator's wire output is byte-identical to a single-node beserve.
//
// Failure model: every call attempt has a deadline; idempotent calls
// (status, fetch, dump, group measurement, commit-by-txn, rollback) get
// bounded retries with doubling backoff; a peer that keeps failing is
// marked down and queries refuse fast with a structured
// shard_unavailable error — degraded, never torn: a read either serves
// one complete version-V snapshot or refuses.
package cluster

import (
	"io"
	"net/http"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/shard"
)

// Options configures a coordinator's peer RPCs; a node takes none of
// them. The planner and the placement of both derive from the catalog
// and the partition count alone, so they agree by construction.
type Options struct {
	// Client is unused: a coordinator dials and pools its framed
	// connections itself. It remains only because the benchmark harness
	// (benchmark/fixture.go) still sets it, and goes when that stops.
	Client *http.Client
	// RPCTimeout bounds one request attempt to a peer; Retries and
	// Backoff shape the retry schedule of idempotent calls; Cooldown is
	// the circuit breaker's down window. Zero values take the defaults;
	// a negative Retries turns retries off.
	RPCTimeout time.Duration
	Retries    int
	Backoff    time.Duration
	Cooldown   time.Duration
}

// Engine is the coordinator over K networked shard nodes: shard.Engine
// built over networked partitions, plus the per-peer RPC metrics only such
// partitions have.
type Engine struct {
	*shard.Engine
	peers []*peerClient
}

var _ core.Queryable = (*Engine)(nil)

// New builds a coordinator over the peer base URLs (one per shard, in
// shard order: peer i must be the node with -shard-id i). Call Attach
// before serving to verify the fleet and adopt its committed version,
// or Load to push it a dataset.
func New(s *schema.Schema, a *access.Schema, peerURLs []string, opts Options) (*Engine, error) {
	peers := make([]*peerClient, len(peerURLs))
	parts := make([]shard.Partition, len(peerURLs))
	for i, u := range peerURLs {
		p, err := newPeerClient(i, u, s, a, opts)
		if err != nil {
			return nil, err
		}
		peers[i], parts[i] = p, p
	}
	co, err := shard.NewCoordinator(s, a, parts)
	if err != nil {
		return nil, err
	}
	return &Engine{Engine: co, peers: peers}, nil
}

// WriteMetrics appends the per-peer RPC latency histograms to a
// /metrics exposition (the server calls it through the optional
// MetricsWriter hook).
func (e *Engine) WriteMetrics(w io.Writer) {
	obs.WriteFamilyHeader(w, "beserve_peer_rpc_latency_seconds", "Internal RPC latency to each cluster peer.")
	for _, p := range e.peers {
		p.lat.Write(w)
	}
}
