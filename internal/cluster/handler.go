package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/live"
	"repro/internal/schema"
	"repro/internal/shard"
)

// maxInternalBody bounds internal request bodies (deltas, sub-instance
// loads). Generous — this surface is coordinator-to-node, not public —
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
// that wire. JSON and base64 start here.
type partitionHandler struct {
	part   shard.Partition
	schema *schema.Schema
	access *access.Schema

	// views holds the last historyLen committed versions, pinned as they
	// commit. guarded by mu.
	mu    sync.Mutex
	views map[uint64]shard.View
}

// InternalHandler returns the /v1/internal/* surface the coordinator
// drives: status, versioned fetch/dump reads, and the staged two-phase
// write protocol (stage → commit/abort, plus the group-measurement and
// rollback endpoints the global validation and failure repair use).
// Mount it via server.Options.Internal so it shares the node's
// listener, admission-exempt: internal traffic must not compete with
// public queries for admission slots, or a busy node would deadlock its
// own coordinator.
func (n *Node) InternalHandler() http.Handler {
	h := &partitionHandler{part: n.part, schema: n.Schema, access: n.Access, views: make(map[uint64]shard.View)}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/internal/status", h.status)
	mux.HandleFunc("/v1/internal/dump", h.dump)
	mux.HandleFunc("/v1/internal/load", post(h.load))
	mux.HandleFunc("/v1/internal/stage", post(h.stage))
	mux.HandleFunc("/v1/internal/checkpoint", post(h.checkpoint))
	mux.HandleFunc("/v1/internal/fetch", rpc(h.fetch))
	mux.HandleFunc("/v1/internal/maxgroup", rpc(h.maxGroup))
	mux.HandleFunc("/v1/internal/groups", rpc(h.groups))
	mux.HandleFunc("/v1/internal/commit", rpc(h.commit))
	mux.HandleFunc("/v1/internal/abort", rpc(h.abort))
	mux.HandleFunc("/v1/internal/rollback", rpc(h.rollback))
	return mux
}

// remember pins version v and keeps its View for later readers; a load
// (version 0) restarts the history.
func (h *partitionHandler) remember(v uint64) {
	view, err := h.part.Pin(v)
	if err != nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if v == 0 {
		h.views = make(map[uint64]shard.View)
	}
	h.views[v] = view
	delete(h.views, v-historyLen)
}

// forgetAfter drops every version past v: the fleet is at v, so
// whatever this node committed beyond it — the tail of a commit fanout
// that never completed — never became fleet state.
func (h *partitionHandler) forgetAfter(v uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for held := range h.views {
		if held > v {
			delete(h.views, held)
		}
	}
}

// pin resolves a reader's version: a remembered View, else whatever the
// partition itself still holds (a node restarted since has remembered
// nothing yet).
func (h *partitionHandler) pin(v uint64) (shard.View, error) {
	h.mu.Lock()
	view := h.views[v]
	h.mu.Unlock()
	if view != nil {
		return view, nil
	}
	return h.part.Pin(v)
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

func (h *partitionHandler) status(w http.ResponseWriter, r *http.Request) {
	st, err := h.part.Status(r.Context())
	reply(w, statusResponse(st), err)
}

// fetch serves index lookups at the reader's pinned version: for each
// key, constraint ci's bucket on this partition.
func (h *partitionHandler) fetch(ctx context.Context, req fetchRequest) (resp fetchResponse, err error) {
	view, err := h.pin(req.V)
	if err != nil {
		return resp, err
	}
	rd := &shard.Read{Ctx: ctx}
	f := view.Fetcher(rd, req.CI)
	if f == nil {
		return resp, badRequest(fmt.Sprintf("no constraint %d", req.CI))
	}
	resp.Buckets = make([]wireBucket, len(req.Keys))
	for i, wk := range req.Keys {
		k, err := decodeKey(wk)
		if err != nil {
			return resp, badRequest(err.Error())
		}
		resp.Buckets[i] = encodeBucket(f.FetchBytes([]byte(k)))
	}
	return resp, rd.Err()
}

// dump streams the partition at the pinned version — the bulk feed for
// the coordinator's scan fallback and baseline evaluation.
func (h *partitionHandler) dump(w http.ResponseWriter, r *http.Request) {
	v, err := strconv.ParseUint(r.URL.Query().Get("v"), 10, 64)
	if err != nil {
		reply(w, nil, badRequest("dump needs ?v=<version>"))
		return
	}
	var inst *data.Instance
	view, err := h.pin(v)
	if err == nil {
		inst, err = view.Instance(r.Context())
	}
	if err != nil {
		reply(w, nil, err)
		return
	}
	w.Header().Set("Content-Type", tsvType)
	// Headers are gone once the body starts; a stream that fails midway
	// is cut short, which the client's TSV decoder reports.
	_ = writeInstanceTSV(w, h.schema, inst)
}

func (h *partitionHandler) load(w http.ResponseWriter, r *http.Request) {
	sub := data.NewInstance(h.schema)
	err := readInstanceTSV(http.MaxBytesReader(w, r.Body, maxInternalBody), h.schema, sub)
	if err != nil {
		err = badRequest(err.Error())
	} else {
		var ix *access.Indexed
		if ix, _, err = access.BuildIndexed(h.access, sub); err == nil {
			err = h.part.Load(r.Context(), ix)
		}
	}
	if err == nil {
		h.remember(0)
	}
	reply(w, versionResponse{Version: 0, Size: sub.Size()}, err)
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
	reply(w, encodeStaged(st), nil)
}

func (h *partitionHandler) maxGroup(ctx context.Context, req groupsRequest) (resp maxGroupResponse, err error) {
	resp.Max, err = h.part.MaxGroup(ctx, req.Txn, req.V, req.CI)
	return resp, err
}

func (h *partitionHandler) groups(ctx context.Context, req groupsRequest) (groupsResponse, error) {
	keys, err := decodeKeys(req.Keys)
	if err != nil {
		return groupsResponse{}, badRequest(err.Error())
	}
	groups, err := h.part.Groups(ctx, req.Txn, req.V, req.CI, keys, req.All)
	return encodeGroups(groups), err
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
	}
	return versionResponse{Version: req.V, Size: size}, err
}

func (h *partitionHandler) checkpoint(w http.ResponseWriter, r *http.Request) {
	v, err := h.part.Checkpoint(r.Context())
	switch {
	case errors.Is(err, core.ErrNotDurable):
		err = &shard.Refusal{Status: http.StatusPreconditionFailed, Code: "not_durable", Message: "node has no durable store"}
	case err != nil:
		err = fmt.Errorf("checkpoint: %w", err)
	}
	reply(w, versionResponse{Version: v}, err)
}
