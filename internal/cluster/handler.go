package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/access"
	"repro/internal/durable"
	"repro/internal/index"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/shard"
)

// historyLen bounds the versions a node keeps readable for remote
// readers. A reader in the coordinator's process holds its pinned View,
// and with it its snapshot, for as long as it reads; a remote reader
// only names its version on every RPC, so the node holds the Views for
// it. Readers pin the coordinator's version, which trails the node's by
// at most one commit in flight, so a short ring covers every read that
// started recently; one that outlives it is refused (stale_version),
// never served a different version.
const historyLen = 8

// partitionHandler serves one shard.Partition over the framed wire —
// the inverse of peerClient, which is a shard.Partition over that wire.
// The wire's encodings start here.
type partitionHandler struct {
	part   shard.Partition
	schema *schema.Schema
	access *access.Schema
	calls  [numMethods]frameCall

	// views holds the last historyLen committed versions, pinned as they
	// commit. guarded by mu.
	mu    sync.Mutex
	views map[uint64]shard.View
}

// frameCall answers one request body, appending the answer body to out
// or returning a slice of its own.
type frameCall func(ctx context.Context, body, out []byte) ([]byte, error)

func newPartitionHandler(part shard.Partition, s *schema.Schema, a *access.Schema) *partitionHandler {
	h := &partitionHandler{part: part, schema: s, access: a, views: make(map[uint64]shard.View)}
	h.calls = [numMethods]frameCall{
		mStatus:     h.status,
		mLoad:       h.load,
		mStage:      h.stage,
		mFetch:      h.fetch,
		mDump:       h.dump,
		mMaxGroup:   jsonCall(h.maxGroup),
		mGroups:     jsonCall(h.groups),
		mCommit:     jsonCall(h.commit),
		mAbort:      jsonCall(h.abort),
		mRollback:   jsonCall(h.rollback),
		mCheckpoint: jsonCall(h.checkpoint),
	}
	return h
}

// serve answers one request frame: the answer's status, and its body
// appended to out or a slice of its own.
func (h *partitionHandler) serve(ctx context.Context, m method, body, out []byte) (int, []byte) {
	var call frameCall
	if m < numMethods {
		call = h.calls[m]
	}
	if call == nil {
		return errorAnswer(out, badRequest(fmt.Sprintf("unknown %s", m)))
	}
	answer, err := call(ctx, body, out)
	if err != nil {
		return errorAnswer(out, err)
	}
	return http.StatusOK, answer
}

// errorAnswer appends err's envelope to out, under its status.
func errorAnswer(out []byte, err error) (int, []byte) {
	status, we := envelope(err)
	b, _ := json.Marshal(we) // strings only: always encodes
	return status, append(out[:0], b...)
}

// envelope is err as the {"error":{code,message}} envelope and its
// status, the same shape as the public API's. Refusals carry their own
// status, code and bare message (the client re-attaches the shard);
// anything else is an internal error.
func envelope(err error) (int, wireError) {
	var we wireError
	status := http.StatusInternalServerError
	we.Error.Code, we.Error.Message = "internal", err.Error()
	var re *shard.Refusal
	if errors.As(err, &re) {
		status, we.Error.Code, we.Error.Message = re.Status, re.Code, re.Message
	}
	return status, we
}

// jsonCall adapts a typed call to a frame: JSON request in, JSON answer
// out.
func jsonCall[Req, Resp any](call func(context.Context, Req) (Resp, error)) frameCall {
	return func(ctx context.Context, body, out []byte) ([]byte, error) {
		var req Req
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, badRequest(err.Error())
		}
		resp, err := call(ctx, req)
		if err != nil {
			return nil, err
		}
		return appendJSON(out, resp)
	}
}

func appendJSON(out []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(out, b...), err
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

func badRequest(msg string) error {
	return &shard.Refusal{Status: http.StatusBadRequest, Code: "bad_request", Message: msg}
}

// status is what a coordinator attaches by, so the version it reports is
// one readers are about to pin: remember it — nothing else has, on a
// node restarted since that version committed.
func (h *partitionHandler) status(ctx context.Context, body, out []byte) ([]byte, error) {
	if len(body) != 0 {
		return nil, badRequest("status takes no body")
	}
	st, err := h.part.Status(ctx)
	if err != nil {
		return nil, err
	}
	h.remember(st.Version)
	return appendJSON(out, st)
}

// fetch serves one fetch step's index lookups at the reader's pinned
// version: for each key, constraint ci's bucket on this partition, in
// the binary exchange wire.go describes.
func (h *partitionHandler) fetch(ctx context.Context, body, out []byte) ([]byte, error) {
	v, ci, keys, err := parseFetchRequest(body)
	if err != nil {
		return nil, badRequest(err.Error())
	}
	view, err := h.pin(v)
	if err != nil {
		return nil, err
	}
	var f plan.Fetcher
	if ci < uint64(len(h.access.Constraints)) {
		f = view.Fetcher(int(ci))
	}
	if f == nil {
		return nil, badRequest(fmt.Sprintf("no constraint %d", ci))
	}
	buckets := make([]index.Bucket, len(keys))
	if err := plan.FetchAll(ctx, f, keys, buckets); err != nil {
		return nil, err
	}
	return appendBuckets(out, buckets), nil
}

// dump answers the partition at the pinned version as its checkpoint
// image — the bulk feed for the coordinator's scan fallback and
// baseline evaluation.
func (h *partitionHandler) dump(ctx context.Context, body, _ []byte) ([]byte, error) {
	var req versionRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, badRequest(err.Error())
	}
	view, err := h.pin(req.V)
	if err != nil {
		return nil, err
	}
	ix, err := view.Indexed(ctx)
	if err != nil {
		return nil, err
	}
	return durable.EncodeCheckpoint(h.schema, &durable.State{Instance: ix.Instance, Indexed: ix, Version: req.V})
}

// load installs the checkpoint image the coordinator built from the
// share it indexed and validated, exactly as a local Load would install
// that share. An image that fails its checks — another catalog, a bad
// CRC — is refused before the partition changes.
func (h *partitionHandler) load(ctx context.Context, body, out []byte) ([]byte, error) {
	st, err := durable.DecodeCheckpoint(body, h.schema, h.access)
	if err != nil {
		return nil, badRequest(err.Error())
	}
	if err := h.part.Load(ctx, st.Indexed); err != nil {
		return nil, err
	}
	h.forgetAfter(0)
	h.remember(0)
	return appendJSON(out, versionResponse{Version: 0, Size: st.Instance.Size()})
}

func (h *partitionHandler) stage(ctx context.Context, body, out []byte) ([]byte, error) {
	txn, base, tsv, err := parseStageRequest(body)
	if err != nil {
		return nil, badRequest(err.Error())
	}
	d, err := live.ReadDeltaTSV(bytes.NewReader(tsv), h.schema)
	if err != nil {
		return nil, badRequest(err.Error())
	}
	st, err := h.part.Stage(ctx, txn, base, d)
	if err != nil {
		return nil, err
	}
	h.forgetAfter(base)
	return appendJSON(out, st)
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

func (h *partitionHandler) rollback(ctx context.Context, req versionRequest) (versionResponse, error) {
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
func (h *partitionHandler) checkpoint(ctx context.Context, req versionRequest) (versionResponse, error) {
	view, err := h.pin(req.V)
	if err != nil {
		return versionResponse{}, err
	}
	err = view.Checkpoint(ctx)
	switch {
	case errors.Is(err, durable.ErrNotDurable):
		err = &shard.Refusal{Status: http.StatusPreconditionFailed, Code: "not_durable", Message: "node has no durable store"}
	case err != nil:
		err = fmt.Errorf("checkpoint: %w", err)
	}
	return versionResponse{Version: req.V}, err
}
