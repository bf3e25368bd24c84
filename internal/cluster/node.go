package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/schema"
	"repro/internal/shard"
)

// Node is one shard server: a local partition (shard.Local — the same
// state machine an in-process fleet runs) served over the framed wire a
// remote coordinator drives it through. A node is a partition, not an
// engine: it plans nothing, and it answers every public query or write
// endpoint with a not_coordinator refusal, because an answer over its
// share alone would look exact while covering about 1/K of the data.
type Node struct {
	acc     *access.Schema
	id, k   int
	part    *shard.Local
	place   *shard.Placement
	wire    *partitionHandler
	handler http.Handler

	// ctx is every framed call's context, canceled when Drain runs out
	// of time.
	ctx    context.Context
	cancel context.CancelFunc

	// conns maps each framed connection to whether a call is in flight
	// on it, and draining refuses new ones. guarded by mu.
	mu       sync.Mutex
	conns    map[net.Conn]bool
	draining bool
	// serving counts the framed connections' serve loops.
	serving sync.WaitGroup
}

// NewNode builds shard server id of k over the shared catalog. A node
// is configured by the catalog and k alone: Options holds only a
// coordinator's settings, so NewNode ignores it.
func NewNode(s *schema.Schema, a *access.Schema, id, k int, _ Options) (*Node, error) {
	place, err := shard.NewPlacement(s, a, k)
	if err != nil {
		return nil, err
	}
	part, err := shard.NewLocal(s, a, id, k)
	if err != nil {
		return nil, err
	}
	n := &Node{acc: a, id: id, k: k, part: part, place: place, conns: make(map[net.Conn]bool)}
	n.wire = newPartitionHandler(part, s, a)
	n.ctx, n.cancel = context.WithCancel(context.Background())
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+connPath, n.upgrade)
	mux.HandleFunc("/v1/internal/", n.upgradeRequired)
	mux.HandleFunc("GET /healthz", n.healthz)
	mux.HandleFunc("GET /metrics", n.metrics)
	mux.HandleFunc("POST /v1/checkpoint", n.checkpoint)
	mux.HandleFunc("/", n.misdirected)
	n.handler = mux
	return n, nil
}

// InternalHandler returns the node's whole HTTP surface: the upgrade to
// the framed wire the coordinator drives (status, versioned fetch/dump
// reads, and the staged two-phase write protocol — stage →
// commit/abort, plus the group-measurement and rollback calls the
// global validation and failure repair use), a 426 upgrade_required
// refusal on every other /v1/internal/* request, the node's own GET
// /healthz, GET /metrics and POST /v1/checkpoint, and a 421
// not_coordinator refusal for every other path. http.Server.Shutdown
// does not see the framed connections: call Drain after it.
func (n *Node) InternalHandler() http.Handler { return n.handler }

// upgrade switches a coordinator's connection to the framed wire and
// serves it until either side closes it.
func (n *Node) upgrade(w http.ResponseWriter, r *http.Request) {
	if !hasToken(r.Header, "Connection", "upgrade") || !hasToken(r.Header, "Upgrade", wireProtocol) {
		n.upgradeRequired(w, r)
		return
	}
	conn, rw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		reply(w, nil, fmt.Errorf("upgrade: %w", err))
		return
	}
	// The server's read deadline was for the request header; a framed
	// connection idles between calls as long as its coordinator keeps it.
	if err := conn.SetDeadline(time.Time{}); err != nil || !n.track(conn) {
		conn.Close()
		return
	}
	defer n.untrack(conn)
	fmt.Fprintf(rw, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", wireProtocol)
	if rw.Flush() != nil {
		return
	}
	// The answer buffer is the connection's own, reused call after call
	// unless a bulk answer (a dump) would pin its size.
	const keep = 64 << 10
	var out []byte
	for {
		m, body, err := readRequest(rw.Reader)
		if err != nil {
			if err != io.EOF {
				// Best effort: the coordinator learns why before the close.
				_, answer := errorAnswer(nil, badRequest(err.Error()))
				writeFrame(rw.Writer, http.StatusBadRequest, answer)
			}
			return
		}
		if !n.busy(conn, true) {
			return // draining: read, never served, never answered
		}
		status, answer := n.wire.serve(n.ctx, m, body, out[:0])
		err = writeFrame(rw.Writer, uint64(status), answer)
		if !n.busy(conn, false) || err != nil {
			return
		}
		if cap(answer) <= keep {
			out = answer
		}
	}
}

// track registers a framed connection, unless the node is draining.
func (n *Node) track(conn net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.draining {
		return false
	}
	n.conns[conn] = false
	n.serving.Add(1)
	return true
}

func (n *Node) untrack(conn net.Conn) {
	n.mu.Lock()
	delete(n.conns, conn)
	n.mu.Unlock()
	conn.Close()
	n.serving.Done()
}

// busy marks whether a call is in flight on conn — never once the node
// is draining, and then it reports false: serve no further call.
func (n *Node) busy(conn net.Conn, busy bool) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.conns[conn] = busy && !n.draining
	return !n.draining
}

// Drain ends the framed wire, for a shutdown after
// http.Server.Shutdown: the node reads no further request, closes each
// idle connection at once, and lets each call in flight finish and be
// answered before closing its connection. When ctx ends first, the
// calls still running are canceled and their connections closed, and
// ctx's error is returned. Either way Drain returns only once no call
// runs, so a parting checkpoint after it cannot race a commit.
func (n *Node) Drain(ctx context.Context) error {
	n.mu.Lock()
	n.draining = true
	for conn, busy := range n.conns {
		if !busy {
			conn.Close()
		}
	}
	n.mu.Unlock()
	done := make(chan struct{})
	go func() {
		n.serving.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	n.cancel()
	n.mu.Lock()
	for conn := range n.conns {
		conn.Close()
	}
	n.mu.Unlock()
	<-done
	return ctx.Err()
}

// upgradeRequired refuses a request for the internal wire that is not
// the upgrade to it — a plain-HTTP call of the retired per-call paths,
// or an upgrade to another protocol — naming the protocol the node
// speaks.
func (n *Node) upgradeRequired(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Connection", "Upgrade")
	w.Header().Set("Upgrade", wireProtocol)
	reply(w, nil, &shard.Refusal{Status: http.StatusUpgradeRequired, Code: "upgrade_required",
		Message: fmt.Sprintf("shard node %d of %d serves the partition wire only as %s over GET %s with Connection: Upgrade, not %s %s",
			n.id, n.k, wireProtocol, connPath, r.Method, r.URL.Path)})
}

// reply writes v as the JSON answer, or err in the public API's
// {"error":{code,message}} envelope under its status.
func reply(w http.ResponseWriter, v any, err error) {
	status := http.StatusOK
	if err != nil {
		status, v = envelope(err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

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
