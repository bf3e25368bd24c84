package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/access"
	"repro/internal/durable"
	"repro/internal/index"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/shard"
)

// maxInternalBody bounds internal request bodies (deltas, partition
// images). Generous — this surface is coordinator-to-node, not public —
// but still bounded so a confused peer cannot balloon memory.
const maxInternalBody = 1 << 30

// historyLen bounds the versions a node keeps readable for remote
// readers. A reader in the coordinator's process holds its pinned View,
// and with it its snapshot, for as long as it reads; a remote reader
// only names its version on every RPC, so the node holds the Views for
// it. Readers pin the coordinator's version, which trails the node's by
// at most one commit in flight, so a short ring covers every read that
// started recently; one that outlives it is refused (stale_version),
// never served a different version.
const historyLen = 8

// partitionHandler serves one shard.Partition over the /v1/internal/*
// wire — the inverse of peerClient, which is a shard.Partition over
// that wire. The wire's encodings start here.
type partitionHandler struct {
	part   shard.Partition
	schema *schema.Schema
	access *access.Schema

	// views holds the last historyLen committed versions, pinned as they
	// commit. guarded by mu.
	mu    sync.Mutex
	views map[uint64]shard.View
}

// newPartitionHandler builds the /v1/internal/* surface over part.
func newPartitionHandler(part shard.Partition, s *schema.Schema, a *access.Schema) *http.ServeMux {
	h := &partitionHandler{part: part, schema: s, access: a, views: make(map[uint64]shard.View)}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/internal/status", h.status)
	mux.HandleFunc("/v1/internal/dump", h.dump)
	mux.HandleFunc("/v1/internal/load", post(h.load))
	mux.HandleFunc("/v1/internal/stage", post(h.stage))
	mux.HandleFunc("/v1/internal/checkpoint", post(h.checkpoint))
	mux.HandleFunc("/v1/internal/fetch", post(h.fetch))
	mux.HandleFunc("/v1/internal/maxgroup", rpc(h.maxGroup))
	mux.HandleFunc("/v1/internal/groups", rpc(h.groups))
	mux.HandleFunc("/v1/internal/commit", rpc(h.commit))
	mux.HandleFunc("/v1/internal/abort", rpc(h.abort))
	mux.HandleFunc("/v1/internal/rollback", rpc(h.rollback))
	return mux
}

// remember pins version v on the partition and keeps its View for later
// readers.
func (h *partitionHandler) remember(v uint64) (shard.View, error) {
	view, err := h.part.Pin(v)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.views[v] = view
	for held := range h.views {
		if held+historyLen <= v {
			delete(h.views, held)
		}
	}
	return view, nil
}

// forgetAfter drops every version past v: the fleet is at v, so
// whatever this node committed beyond it — the tail of a commit fanout
// that never completed, or the history a load replaced — never became
// fleet state.
func (h *partitionHandler) forgetAfter(v uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for held := range h.views {
		if held > v {
			delete(h.views, held)
		}
	}
}

// pin resolves a reader's version: a remembered View, else what the
// partition itself still holds — the version a restarted node recovered,
// or one committed without this handler — remembered from here on.
func (h *partitionHandler) pin(v uint64) (shard.View, error) {
	h.mu.Lock()
	view := h.views[v]
	h.mu.Unlock()
	if view != nil {
		return view, nil
	}
	return h.remember(v)
}

// pinned resolves the ?v=<version> a dump or checkpoint names.
func (h *partitionHandler) pinned(r *http.Request) (uint64, shard.View, error) {
	v, err := strconv.ParseUint(r.URL.Query().Get("v"), 10, 64)
	if err != nil {
		return 0, nil, badRequest(r.URL.Path + " needs ?v=<version>")
	}
	view, err := h.pin(v)
	return v, view, err
}

func badRequest(msg string) error {
	return &shard.Refusal{Status: http.StatusBadRequest, Code: "bad_request", Message: msg}
}

// reply writes v as the JSON answer, or err in the same
// {"error":{code,message}} envelope as the public API. Refusals carry
// their own status, code and bare message (the client re-attaches the
// shard); anything else is an internal error.
func reply(w http.ResponseWriter, v any, err error) {
	status := http.StatusOK
	if err != nil {
		var we wireError
		status, we.Error.Code, we.Error.Message = http.StatusInternalServerError, "internal", err.Error()
		var re *shard.Refusal
		if errors.As(err, &re) {
			status, we.Error.Code, we.Error.Message = re.Status, re.Code, re.Message
		}
		v = we
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// post guards the mutating endpoints.
func post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			reply(w, nil, &shard.Refusal{Status: http.StatusMethodNotAllowed, Code: "method_not_allowed", Message: "use POST"})
			return
		}
		h(w, r)
	}
}

// rpc adapts a typed call to a POST endpoint: JSON request in, JSON
// response or error envelope out.
func rpc[Req, Resp any](call func(context.Context, Req) (Resp, error)) http.HandlerFunc {
	return post(func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInternalBody)).Decode(&req); err != nil {
			reply(w, nil, badRequest(err.Error()))
			return
		}
		resp, err := call(r.Context(), req)
		reply(w, resp, err)
	})
}

// status is what a coordinator attaches by, so the version it reports is
// one readers are about to pin: remember it — nothing else has, on a
// node restarted since that version committed.
func (h *partitionHandler) status(w http.ResponseWriter, r *http.Request) {
	st, err := h.part.Status(r.Context())
	if err == nil {
		h.remember(st.Version)
	}
	reply(w, st, err)
}

// fetch serves one fetch step's index lookups at the reader's pinned
// version: for each key, constraint ci's bucket on this partition, in
// the binary exchange wire.go describes.
func (h *partitionHandler) fetch(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); ct != binaryType {
		reply(w, nil, badRequest("fetch body must be "+binaryType+", not "+strconv.Quote(ct)))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxInternalBody))
	if err != nil {
		reply(w, nil, badRequest(err.Error()))
		return
	}
	v, ci, keys, err := parseFetchRequest(body)
	if err != nil {
		reply(w, nil, badRequest(err.Error()))
		return
	}
	view, err := h.pin(v)
	if err != nil {
		reply(w, nil, err)
		return
	}
	var f plan.Fetcher
	if ci < uint64(len(h.access.Constraints)) {
		f = view.Fetcher(int(ci))
	}
	if f == nil {
		reply(w, nil, badRequest(fmt.Sprintf("no constraint %d", ci)))
		return
	}
	buckets := make([]index.Bucket, len(keys))
	if err := plan.FetchAll(r.Context(), f, keys, buckets); err != nil {
		reply(w, nil, err)
		return
	}
	w.Header().Set("Content-Type", binaryType)
	_, _ = w.Write(appendBuckets(make([]byte, 0, 512), buckets))
}

// dump answers the partition at the pinned version as its checkpoint
// image — the bulk feed for the coordinator's scan fallback and
// baseline evaluation.
func (h *partitionHandler) dump(w http.ResponseWriter, r *http.Request) {
	var img []byte
	v, view, err := h.pinned(r)
	if err == nil {
		var ix *access.Indexed
		if ix, err = view.Indexed(r.Context()); err == nil {
			img, err = durable.EncodeCheckpoint(h.schema, &durable.State{Instance: ix.Instance, Indexed: ix, Version: v})
		}
	}
	if err != nil {
		reply(w, nil, err)
		return
	}
	w.Header().Set("Content-Type", binaryType)
	// A write cut short reaches the client as a truncated image, which
	// its length and CRC checks refuse.
	_, _ = w.Write(img)
}

// load installs the checkpoint image the coordinator built from the
// share it indexed and validated, exactly as a local Load would install
// that share. An image that fails its checks — another catalog, a bad
// CRC — is refused before the partition changes.
func (h *partitionHandler) load(w http.ResponseWriter, r *http.Request) {
	var st *durable.State
	img, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxInternalBody))
	if err == nil {
		st, err = durable.DecodeCheckpoint(img, h.schema, h.access)
	}
	if err != nil {
		reply(w, nil, badRequest(err.Error()))
		return
	}
	if err = h.part.Load(r.Context(), st.Indexed); err == nil {
		h.forgetAfter(0)
		h.remember(0)
	}
	reply(w, versionResponse{Version: 0, Size: st.Instance.Size()}, err)
}

func (h *partitionHandler) stage(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	txn := q.Get("txn")
	base, err := strconv.ParseUint(q.Get("base"), 10, 64)
	if txn == "" || err != nil {
		reply(w, nil, badRequest("stage needs ?txn=<id>&base=<version>"))
		return
	}
	d, err := live.ReadDeltaTSV(http.MaxBytesReader(w, r.Body, maxInternalBody), h.schema)
	if err != nil {
		reply(w, nil, badRequest(err.Error()))
		return
	}
	st, err := h.part.Stage(r.Context(), txn, base, d)
	if err != nil {
		reply(w, nil, err)
		return
	}
	h.forgetAfter(base)
	reply(w, st, nil)
}

func (h *partitionHandler) maxGroup(ctx context.Context, req groupsRequest) (resp maxGroupResponse, err error) {
	resp.Max, err = h.part.MaxGroup(ctx, req.Txn, req.V, req.CI)
	return resp, err
}

func (h *partitionHandler) groups(ctx context.Context, req groupsRequest) (resp groupsResponse, err error) {
	resp.Groups, err = h.part.Groups(ctx, req.Txn, req.V, req.CI, req.Keys, req.All)
	return resp, err
}

func (h *partitionHandler) commit(ctx context.Context, req commitRequest) (versionResponse, error) {
	size, err := h.part.Commit(ctx, req.Txn, req.V)
	if err == nil {
		h.remember(req.V + 1)
	}
	return versionResponse{Version: req.V + 1, Size: size}, err
}

// okResponse acknowledges an abort.
type okResponse struct {
	OK bool `json:"ok"`
}

func (h *partitionHandler) abort(ctx context.Context, req abortRequest) (okResponse, error) {
	return okResponse{true}, h.part.Abort(ctx, req.Txn)
}

func (h *partitionHandler) rollback(ctx context.Context, req rollbackRequest) (versionResponse, error) {
	size, err := h.part.Rollback(ctx, req.V)
	if err == nil {
		h.forgetAfter(req.V)
		h.remember(req.V)
	}
	return versionResponse{Version: req.V, Size: size}, err
}

// checkpoint persists the version the coordinator has published — named
// in the request, never "whatever this node holds": its newest version
// may belong to a commit fanout that does not complete.
func (h *partitionHandler) checkpoint(w http.ResponseWriter, r *http.Request) {
	v, view, err := h.pinned(r)
	if err != nil {
		reply(w, nil, err)
		return
	}
	err = view.Checkpoint(r.Context())
	switch {
	case errors.Is(err, durable.ErrNotDurable):
		err = &shard.Refusal{Status: http.StatusPreconditionFailed, Code: "not_durable", Message: "node has no durable store"}
	case err != nil:
		err = fmt.Errorf("checkpoint: %w", err)
	}
	reply(w, versionResponse{Version: v}, err)
}
