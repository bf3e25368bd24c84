package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/schema"
	"repro/internal/shard"
)

// Node is one shard server: a local partition (shard.Local — the same
// state machine an in-process fleet runs) served over the /v1/internal/*
// wire a remote coordinator drives it through. A node is a partition,
// not an engine: it plans nothing, and it answers every public query or
// write endpoint with a not_coordinator refusal, because an answer over
// its share alone would look exact while covering about 1/K of the data.
type Node struct {
	acc     *access.Schema
	id, k   int
	part    *shard.Local
	place   *shard.Placement
	handler http.Handler
}

// NewNode builds shard server id of k over the shared catalog. A node
// is configured by the catalog and k alone: Options holds only a
// coordinator's RPC settings, so NewNode ignores it.
func NewNode(s *schema.Schema, a *access.Schema, id, k int, _ Options) (*Node, error) {
	place, err := shard.NewPlacement(s, a, k)
	if err != nil {
		return nil, err
	}
	part, err := shard.NewLocal(s, a, id, k)
	if err != nil {
		return nil, err
	}
	n := &Node{acc: a, id: id, k: k, part: part, place: place}
	mux := newPartitionHandler(part, s, a)
	mux.HandleFunc("GET /healthz", n.healthz)
	mux.HandleFunc("GET /metrics", n.metrics)
	mux.HandleFunc("POST /v1/checkpoint", n.checkpoint)
	mux.HandleFunc("/", n.misdirected)
	n.handler = mux
	return n, nil
}

// InternalHandler returns the node's whole HTTP surface: the
// /v1/internal/* wire the coordinator drives (status, versioned
// fetch/dump reads, and the staged two-phase write protocol — stage →
// commit/abort, plus the group-measurement and rollback endpoints the
// global validation and failure repair use), the node's own GET
// /healthz, GET /metrics and POST /v1/checkpoint, and a 421
// not_coordinator refusal for every other path.
func (n *Node) InternalHandler() http.Handler { return n.handler }

// healthz answers liveness with the partition's size and version, read
// from one snapshot — the JSON shape of the server's /healthz.
func (n *Node) healthz(w http.ResponseWriter, r *http.Request) {
	st, err := n.part.Status(r.Context())
	reply(w, struct {
		Status  string `json:"status"`
		Size    int    `json:"size"`
		Version uint64 `json:"version"`
	}{"ok", st.Size, st.Version}, err)
}

// metrics exposes the partition's engine series under the names the
// server uses for a whole engine's.
func (n *Node) metrics(w http.ResponseWriter, r *http.Request) {
	st, _ := n.part.Status(r.Context()) // a local status never fails
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "beserve_engine_size %d\n", st.Size)
	fmt.Fprintf(w, "beserve_engine_shards %d\n", st.Shards)
	fmt.Fprintf(w, "beserve_engine_version %d\n", st.Version)
	fmt.Fprintf(w, "beserve_engine_applies_total %d\n", n.part.Commits())
}

// checkpoint serves an operator's POST /v1/checkpoint: the partition's
// own newest version, answered as {"version":V}; 409 not_durable
// without a durable store.
func (n *Node) checkpoint(w http.ResponseWriter, r *http.Request) {
	v, err := n.Checkpoint(r.Context())
	if errors.Is(err, durable.ErrNotDurable) {
		err = &shard.Refusal{Status: http.StatusConflict, Code: "not_durable", Message: "node was started without a data directory"}
	}
	reply(w, struct {
		Version uint64 `json:"version"`
	}{v}, err)
}

// misdirected refuses every public endpoint a coordinator serves.
func (n *Node) misdirected(w http.ResponseWriter, r *http.Request) {
	reply(w, nil, &shard.Refusal{Status: http.StatusMisdirectedRequest, Code: "not_coordinator",
		Message: fmt.Sprintf("shard node %d of %d holds one partition and serves only the coordinator's wire; send %s %s to the coordinator",
			n.id, n.k, r.Method, r.URL.Path)})
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
	ix, _, err := access.BuildIndexed(n.acc, sub)
	if err != nil {
		return err
	}
	return n.part.Load(context.Background(), ix)
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
