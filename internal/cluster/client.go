package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/durable"
	"repro/internal/index"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/value"
)

// Default failure-handling knobs; Options overrides them.
const (
	// DefaultRPCTimeout bounds one request attempt to a peer.
	DefaultRPCTimeout = 5 * time.Second
	// DefaultRetries is how many times an idempotent call is retried
	// after its first failure.
	DefaultRetries = 2
	// DefaultBackoff is the delay before the first retry; it doubles per
	// attempt.
	DefaultBackoff = 10 * time.Millisecond
	// DefaultCooldown is how long a peer marked down refuses fast before
	// the next request is allowed through to re-probe it.
	DefaultCooldown = time.Second
)

// peerClient is the shard.Partition that lives behind HTTP: the
// coordinator's handle to one shard node. JSON RPCs (and binary fetch,
// image or delta bodies) with a per-attempt timeout, bounded retries
// with doubling backoff on idempotent calls, a down-marker circuit so a
// dead peer costs one timeout rather than one per request, and a
// per-peer RPC latency histogram for /metrics. Native types in, native
// types out: the wire's encodings stop here.
type peerClient struct {
	id      int
	base    string
	schema  *schema.Schema
	access  *access.Schema
	hc      *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration

	mu        sync.Mutex
	down      bool
	downSince time.Time
	cooldown  time.Duration

	lat *obs.Histogram
}

var _ shard.Partition = (*peerClient)(nil)

func newPeerClient(id int, base string, s *schema.Schema, a *access.Schema, opts Options) *peerClient {
	p := &peerClient{
		id:       id,
		base:     base,
		schema:   s,
		access:   a,
		hc:       opts.Client,
		timeout:  opts.RPCTimeout,
		retries:  opts.Retries,
		backoff:  opts.Backoff,
		cooldown: opts.Cooldown,
		lat: obs.NewLabeledHistogram("beserve_peer_rpc_latency_seconds",
			"peer", strconv.Itoa(id), obs.LatencyBuckets()),
	}
	if p.timeout <= 0 {
		p.timeout = DefaultRPCTimeout
	}
	switch {
	case p.retries == 0:
		p.retries = DefaultRetries
	case p.retries < 0:
		p.retries = 0
	}
	if p.backoff <= 0 {
		p.backoff = DefaultBackoff
	}
	if p.cooldown <= 0 {
		p.cooldown = DefaultCooldown
	}
	return p
}

// available reports whether the peer should be tried at all: true when
// healthy, true once per cooldown window when down (the half-open
// probe), false in between. The probing caller's success or failure
// resolves the peer's state.
func (p *peerClient) available() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.down {
		return true
	}
	if time.Since(p.downSince) >= p.cooldown {
		// Half-open: let this caller probe; move the window forward so a
		// burst doesn't all pile onto a dead peer.
		p.downSince = time.Now()
		return true
	}
	return false
}

func (p *peerClient) markResult(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err == nil {
		p.down = false
		return
	}
	if !p.down {
		p.down = true
		p.downSince = time.Now()
	}
}

// unavailable wraps a transport-level failure.
func (p *peerClient) unavailable(err error) error {
	return &UnavailableError{Peer: p.id, Err: err}
}

// call runs one JSON RPC: in (when non-nil) is the JSON request body,
// out (when non-nil) receives the decoded 2xx response.
func (p *peerClient) call(ctx context.Context, method, path string, in, out any, idem bool) error {
	var payload []byte
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return err
		}
	}
	return p.do(ctx, method, path, "application/json", payload, idem, jsonInto(p.id, out))
}

// jsonInto decodes a response body into out (nil drains and discards).
func jsonInto(peer int, out any) func(io.Reader) error {
	return func(r io.Reader) error {
		raw, err := io.ReadAll(r)
		if err != nil || out == nil {
			return err
		}
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("cluster: shard %d: bad response: %w", peer, err)
		}
		return nil
	}
}

// do runs one RPC: payload (when non-nil) is sent verbatim as ctype,
// decode consumes a 2xx body, and a structured error envelope comes
// back as a *shard.Refusal. idem enables retries: only calls that are
// safe to repeat — reads, the idempotent-by-txn commit, rollback — may
// retry; stage and abort never do.
func (p *peerClient) do(ctx context.Context, method, path, ctype string, payload []byte, idem bool, decode func(io.Reader) error) error {
	attempts := 1
	if idem {
		attempts += p.retries
	}
	backoff := p.backoff
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			select {
			case <-ctx.Done():
				return p.unavailable(ctx.Err())
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		err := p.attempt(ctx, method, path, ctype, payload, decode)
		var re *shard.Refusal
		if err == nil || (errors.As(err, &re) && re.Status < 500) {
			// Success, or a structured 4xx refusal: the peer is alive and
			// answered deliberately — never retried.
			p.markResult(nil)
			return err
		}
		lastErr = err
	}
	if ctx.Err() == nil {
		// Only the peer's own failures trip the breaker: an attempt cut
		// short by the caller's context — a client hang-up, a sibling
		// call's failure — says nothing about the peer.
		p.markResult(lastErr)
	}
	return p.unavailable(lastErr)
}

// attempt is one timed request.
func (p *peerClient) attempt(ctx context.Context, method, path, ctype string, payload []byte, decode func(io.Reader) error) error {
	actx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(actx, method, p.base+path, rd)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", ctype)
	}
	start := time.Now()
	defer func() { p.lat.Observe(time.Since(start).Seconds()) }()
	resp, err := p.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(resp.Body) // a body that cannot be read is reported by status alone
		var we wireError
		if jerr := json.Unmarshal(raw, &we); jerr == nil && we.Error.Code != "" {
			return &shard.Refusal{Shard: p.id, Status: resp.StatusCode, Code: we.Error.Code, Message: we.Error.Message}
		}
		return fmt.Errorf("cluster: shard %d answered status %d", p.id, resp.StatusCode)
	}
	return decode(resp.Body)
}

func (p *peerClient) Status(ctx context.Context) (shard.Status, error) {
	var st shard.Status
	err := p.call(ctx, http.MethodGet, "/v1/internal/status", nil, &st, true)
	return st, err
}

// Pin costs nothing: the version rides every read RPC, and a node that
// no longer holds it refuses that read with stale_version.
func (p *peerClient) Pin(v uint64) (shard.View, error) { return peerView{p: p, v: v}, nil }

// Load ships the coordinator's indexed, validated share as its
// checkpoint image; the node installs it as is.
func (p *peerClient) Load(ctx context.Context, ix *access.Indexed) error {
	img, err := durable.EncodeCheckpoint(p.schema, &durable.State{Instance: ix.Instance, Indexed: ix})
	if err != nil {
		return err
	}
	return p.do(ctx, http.MethodPost, "/v1/internal/load", binaryType, img, false, jsonInto(p.id, nil))
}

func (p *peerClient) Stage(ctx context.Context, txn string, base uint64, d *live.Delta) (*shard.Staged, error) {
	var buf bytes.Buffer
	if err := live.WriteDeltaTSV(&buf, d); err != nil {
		return nil, err
	}
	var st shard.Staged
	path := "/v1/internal/stage?txn=" + txn + "&base=" + strconv.FormatUint(base, 10)
	if err := p.do(ctx, http.MethodPost, path, tsvType, buf.Bytes(), false, jsonInto(p.id, &st)); err != nil {
		return nil, err
	}
	return &st, nil
}

func (p *peerClient) MaxGroup(ctx context.Context, txn string, v uint64, ci int) (int, error) {
	var resp maxGroupResponse
	err := p.call(ctx, http.MethodPost, "/v1/internal/maxgroup", groupsRequest{Txn: txn, V: v, CI: ci}, &resp, true)
	return resp.Max, err
}

func (p *peerClient) Groups(ctx context.Context, txn string, v uint64, ci int, keys []value.Key, all bool) ([]shard.Group, error) {
	var resp groupsResponse
	req := groupsRequest{Txn: txn, V: v, CI: ci, Keys: keys, All: all}
	err := p.call(ctx, http.MethodPost, "/v1/internal/groups", req, &resp, true)
	return resp.Groups, err
}

func (p *peerClient) Commit(ctx context.Context, txn string, v uint64) (int, error) {
	var resp versionResponse
	// Idempotent by transaction id: a retry after a lost response gets
	// the recorded result, not a double apply.
	err := p.call(ctx, http.MethodPost, "/v1/internal/commit", commitRequest{Txn: txn, V: v}, &resp, true)
	return resp.Size, err
}

func (p *peerClient) Abort(ctx context.Context, txn string) error {
	return p.call(ctx, http.MethodPost, "/v1/internal/abort", abortRequest{Txn: txn}, nil, false)
}

func (p *peerClient) Rollback(ctx context.Context, v uint64) (int, error) {
	var resp versionResponse
	err := p.call(ctx, http.MethodPost, "/v1/internal/rollback", rollbackRequest{V: v}, &resp, true)
	return resp.Size, err
}

// peerView is the peer pinned at one version: every read names v, so a
// streamed result drained after later Applies still reads its own
// version — snapshot isolation held over the wire by the node's version
// ring.
type peerView struct {
	p *peerClient
	v uint64
}

func (pv peerView) Fetcher(ci int) plan.Fetcher {
	if ci < 0 || ci >= len(pv.p.access.Constraints) {
		return nil
	}
	return peerFetcher{peerView: pv, ci: ci}
}

// Indexed fetches the peer's partition at the pinned version as its
// checkpoint image. A body cut short fails the read or the image's
// length and CRC checks, so a dump severed mid-stream cannot leave half
// a partition behind.
func (pv peerView) Indexed(ctx context.Context) (*access.Indexed, error) {
	var st *durable.State
	path := "/v1/internal/dump?v=" + strconv.FormatUint(pv.v, 10)
	err := pv.p.do(ctx, http.MethodGet, path, "", nil, true, func(r io.Reader) error {
		img, err := io.ReadAll(r)
		if err == nil {
			st, err = durable.DecodeCheckpoint(img, pv.p.schema, pv.p.access)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return st.Indexed, nil
}

// Checkpoint asks the node to persist the pinned version; a node
// without durability surfaces as durable.ErrNotDurable, like a local
// partition.
func (pv peerView) Checkpoint(ctx context.Context) error {
	path := "/v1/internal/checkpoint?v=" + strconv.FormatUint(pv.v, 10)
	err := pv.p.call(ctx, http.MethodPost, path, nil, nil, false)
	var re *shard.Refusal
	if errors.As(err, &re) && re.Code == "not_durable" {
		return durable.ErrNotDurable
	}
	return err
}

// peerFetcher serves one constraint's buckets from the pinned peer as a
// plan.BatchFetcher: a fetch step's keys for this partition travel in
// one /v1/internal/fetch RPC, and a failed RPC fails the step — the
// executor aborts the query with the structured error instead of
// answering from a torn snapshot.
type peerFetcher struct {
	peerView
	ci int
}

func (f peerFetcher) FetchBatch(ctx context.Context, keys [][]byte, out []index.Bucket) error {
	if !f.p.available() {
		return f.p.unavailable(errPeerDown)
	}
	size := 3 * binary.MaxVarintLen64
	for _, k := range keys {
		size += binary.MaxVarintLen64 + len(k)
	}
	req := appendFetchRequest(make([]byte, 0, size), f.v, uint64(f.ci), keys)
	var body []byte
	err := f.p.do(ctx, http.MethodPost, "/v1/internal/fetch", binaryType, req, true, func(r io.Reader) (err error) {
		body, err = io.ReadAll(r)
		return err
	})
	if err != nil {
		return err
	}
	if err := decodeBuckets(body, len(keys), len(f.p.access.Constraints[f.ci].Y), out); err != nil {
		return f.p.unavailable(err)
	}
	return nil
}

// FetchBytes completes plan.Fetcher, whose one-key signature cannot
// report a failed RPC. The executor resolves every fetcher through
// plan.FetchAll, which calls FetchBatch, so nothing reaches this.
func (peerFetcher) FetchBytes([]byte) index.Bucket {
	panic("cluster: peer fetchers serve key sets through FetchBatch only")
}
