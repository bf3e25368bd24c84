package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
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

// A peer client's failure handling.
const (
	// rpcTimeout bounds one request attempt to a peer.
	rpcTimeout = 5 * time.Second
	// rpcRetries is how many times an idempotent call is retried after
	// its first failure.
	rpcRetries = 2
	// rpcBackoff is the delay before the first retry; it doubles per
	// attempt.
	rpcBackoff = 10 * time.Millisecond
	// downCooldown is how long a peer marked down refuses fast before
	// the next request is allowed through to re-probe it.
	downCooldown = time.Second
)

// idleConns bounds the idle connections a coordinator keeps open to one
// peer; a call past them dials a connection of its own and closes it
// after.
const idleConns = 16

// peerClient is the shard.Partition that lives behind the framed wire:
// the coordinator's handle to one shard node. Each call is one request
// frame and one answer frame on a connection the client dialled and
// upgraded itself, one call in flight per connection, taken from a
// bounded idle pool or dialled anew. A per-attempt deadline, bounded
// retries with doubling backoff on idempotent calls, a down-marker
// circuit so a dead peer costs one timeout rather than one per request,
// and a per-peer RPC latency histogram for /metrics. Native types in,
// native types out: the wire's encodings stop here.
type peerClient struct {
	id     int
	addr   string // the node's host:port
	schema *schema.Schema
	access *access.Schema
	// timeout, retries, backoff and cooldown (below) start as the
	// constants above; only tests change them.
	timeout time.Duration
	retries int
	backoff time.Duration

	idle chan *peerConn

	// exchange is one call on a connection: the request frame out, the
	// answer frame back. Tests replace it to inject faults frame by
	// frame.
	exchange func(c *peerConn, m method, body []byte) (status int, answer []byte, err error)

	mu        sync.Mutex
	down      bool
	downSince time.Time
	cooldown  time.Duration

	lat *obs.Histogram
}

var _ shard.Partition = (*peerClient)(nil)

func newPeerClient(id int, base string, s *schema.Schema, a *access.Schema) (*peerClient, error) {
	addr, err := peerAddr(base)
	if err != nil {
		return nil, err
	}
	return &peerClient{
		id:       id,
		addr:     addr,
		schema:   s,
		access:   a,
		timeout:  rpcTimeout,
		retries:  rpcRetries,
		backoff:  rpcBackoff,
		cooldown: downCooldown,
		idle:     make(chan *peerConn, idleConns),
		exchange: (*peerConn).roundTrip,
		lat: obs.NewLabeledHistogram("beserve_peer_rpc_latency_seconds",
			"peer", strconv.Itoa(id), obs.LatencyBuckets()),
	}, nil
}

// peerAddr is the host:port of a node's base URL, http://host[:port].
func peerAddr(base string) (string, error) {
	u, err := url.Parse(base)
	if err == nil && (u.Scheme != "http" || u.Host == "" || strings.Trim(u.Path, "/") != "" || u.RawQuery != "") {
		err = errors.New("want http://host:port")
	}
	if err != nil {
		return "", fmt.Errorf("cluster: peer %q: %w", base, err)
	}
	if u.Port() == "" {
		return net.JoinHostPort(u.Hostname(), "80"), nil
	}
	return u.Host, nil
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

// call runs one control call: req is the request body, and answer (when
// non-nil) decodes the answer.
func (p *peerClient) call(ctx context.Context, m method, req []byte, idem bool, answer func(*coder)) error {
	body, err := p.do(ctx, m, req, idem)
	if err != nil || answer == nil {
		return err
	}
	if err := decode(body, answer); err != nil {
		return fmt.Errorf("cluster: shard %d: bad %s answer: %w", p.id, m, err)
	}
	return nil
}

// do runs one call — payload is the request body, the result a 2xx
// answer's body — and a structured error envelope comes back as a
// *shard.Refusal. idem enables retries: only calls that are safe to
// repeat — reads, the idempotent-by-txn commit, rollback — may retry;
// stage and abort never do.
func (p *peerClient) do(ctx context.Context, m method, payload []byte, idem bool) ([]byte, error) {
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
				return nil, p.unavailable(ctx.Err())
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		answer, err := p.attempt(ctx, m, payload, !idem)
		var re *shard.Refusal
		if err == nil || (errors.As(err, &re) && re.Status < 500) {
			// Success, or a structured 4xx refusal: the peer is alive and
			// answered deliberately — never retried.
			p.markResult(nil)
			return answer, err
		}
		lastErr = err
	}
	if ctx.Err() == nil {
		// Only the peer's own failures trip the breaker: an attempt cut
		// short by the caller's context — a client hang-up, a sibling
		// call's failure — says nothing about the peer.
		p.markResult(lastErr)
	}
	return nil, p.unavailable(lastErr)
}

// attempt is one call under one deadline: the sooner of the caller's
// and the peer's timeout from now, set on the connection, and the caller's
// cancellation breaks a blocked read or write. A connection whose call
// failed, timed out or was cancelled may hold half a frame, so it is
// closed, never pooled — a late answer cannot be read as another
// call's. A fresh attempt dials its own connection: see take.
func (p *peerClient) attempt(ctx context.Context, m method, payload []byte, fresh bool) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() { p.lat.Observe(time.Since(start).Seconds()) }()
	deadline := start.Add(p.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	c, err := p.take(ctx, deadline, fresh)
	if err != nil {
		return nil, err
	}
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { c.conn.SetDeadline(time.Unix(1, 0)) })
	}
	status, answer, err := p.exchange(c, m, payload)
	if canceled := !stop(); err != nil || canceled {
		c.conn.Close()
	} else {
		p.put(c)
	}
	switch {
	case err != nil && ctx.Err() != nil:
		// The cancellation, not the deadline it set, is the cause.
		return nil, ctx.Err()
	case err != nil:
		// A node that restarted or shut down closed every connection
		// idling here too: the next call dials afresh.
		p.closeIdle()
		return nil, err
	}
	if status/100 == 2 {
		return answer, nil
	}
	var we wireError
	if jerr := json.Unmarshal(answer, &we); jerr == nil && we.Error.Code != "" {
		return nil, &shard.Refusal{Shard: p.id, Status: status, Code: we.Error.Code, Message: we.Error.Message}
	}
	return nil, fmt.Errorf("cluster: shard %d answered status %d", p.id, status)
}

// take hands out an idle connection, or dials a new one, with its
// deadline set. A fresh call — one that is never retried — always dials:
// an idle connection the node closed meanwhile, in a restart or a
// drain, would fail it only after its request was sent, and a call
// that may not be retried cannot learn whether the node saw it.
func (p *peerClient) take(ctx context.Context, deadline time.Time, fresh bool) (*peerConn, error) {
	if !fresh {
		select {
		case c := <-p.idle:
			if err := c.conn.SetDeadline(deadline); err != nil {
				c.conn.Close()
				return nil, err
			}
			return c, nil
		default:
		}
	}
	conn, err := (&net.Dialer{Deadline: deadline}).DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, err
	}
	c := &peerConn{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	if err := c.upgrade(p.addr, deadline); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// put returns a connection in step to the idle pool, or closes it when
// the pool is full.
func (p *peerClient) put(c *peerConn) {
	select {
	case p.idle <- c:
	default:
		c.conn.Close()
	}
}

// closeIdle closes every pooled connection.
func (p *peerClient) closeIdle() {
	for {
		select {
		case c := <-p.idle:
			c.conn.Close()
		default:
			return
		}
	}
}

// peerConn is one upgraded connection to a node.
type peerConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// upgrade asks the node to switch the connection to the framed wire.
// Anything but 101 is a failed dial, reported with the node's status and
// refusal.
func (c *peerConn) upgrade(host string, deadline time.Time) error {
	if err := c.conn.SetDeadline(deadline); err != nil {
		return err
	}
	fmt.Fprintf(c.w, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", connPath, host, wireProtocol)
	if err := c.w.Flush(); err != nil {
		return err
	}
	resp, err := http.ReadResponse(c.r, nil)
	if err != nil {
		return fmt.Errorf("upgrade: %w", err)
	}
	if resp.StatusCode == http.StatusSwitchingProtocols && hasToken(resp.Header, "Upgrade", wireProtocol) {
		return nil
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10)) // the status alone is reported without a body
	resp.Body.Close()
	var we wireError
	if json.Unmarshal(raw, &we) == nil && we.Error.Code != "" {
		return fmt.Errorf("upgrade to %s answered %s: %s (%s)", wireProtocol, resp.Status, we.Error.Message, we.Error.Code)
	}
	return fmt.Errorf("upgrade to %s answered %s", wireProtocol, resp.Status)
}

// roundTrip sends one request frame and reads its answer frame.
func (c *peerConn) roundTrip(m method, body []byte) (int, []byte, error) {
	if err := writeFrame(c.w, uint64(m), body); err != nil {
		return 0, nil, err
	}
	return readAnswer(c.r)
}

// hasToken reports whether h's field key lists token, as the
// comma-separated, case-insensitive lists of Connection and Upgrade
// are.
func hasToken(h http.Header, key, token string) bool {
	for _, v := range h.Values(key) {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}

func (p *peerClient) Status(ctx context.Context) (st shard.Status, err error) {
	err = p.call(ctx, mStatus, nil, true, func(c *coder) { c.status(&st) })
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
	_, err = p.do(ctx, mLoad, img, false)
	return err
}

func (p *peerClient) Stage(ctx context.Context, txn string, base uint64, d *live.Delta) (st *shard.Staged, err error) {
	req := live.AppendDelta(request{txn: txn, v: base}.body(mStage), d)
	st = new(shard.Staged)
	return st, p.call(ctx, mStage, req, false, func(c *coder) { c.staged(st) })
}

func (p *peerClient) MaxGroup(ctx context.Context, txn string, v uint64, ci int) (g int, err error) {
	req := request{txn: txn, v: v, ci: uint64(ci)}.body(mMaxGroup)
	err = p.call(ctx, mMaxGroup, req, true, func(c *coder) { c.int(&g) })
	return g, err
}

func (p *peerClient) Groups(ctx context.Context, txn string, v uint64, ci int, keys []value.Key, all bool) (gs []shard.Group, err error) {
	req := request{txn: txn, v: v, ci: uint64(ci), all: all, keys: keys}.body(mGroups)
	err = p.call(ctx, mGroups, req, true, func(c *coder) { c.groups(&gs) })
	return gs, err
}

// Commit is idempotent by transaction id: a retry after a lost answer
// gets the recorded result, not a double apply.
func (p *peerClient) Commit(ctx context.Context, txn string, v uint64) (size int, err error) {
	err = p.call(ctx, mCommit, request{txn: txn, v: v}.body(mCommit), true, func(c *coder) { c.versionSize(&v, &size) })
	return size, err
}

func (p *peerClient) Abort(ctx context.Context, txn string) error {
	return p.call(ctx, mAbort, request{txn: txn}.body(mAbort), false, nil)
}

func (p *peerClient) Rollback(ctx context.Context, v uint64) (size int, err error) {
	err = p.call(ctx, mRollback, request{v: v}.body(mRollback), true, func(c *coder) { c.versionSize(&v, &size) })
	return size, err
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
	img, err := pv.p.do(ctx, mDump, request{v: pv.v}.body(mDump), true)
	if err != nil {
		return nil, err
	}
	st, err := durable.DecodeCheckpoint(img, pv.p.schema, pv.p.access)
	if err != nil {
		return nil, pv.p.unavailable(err)
	}
	return st.Indexed, nil
}

// Checkpoint asks the node to persist the pinned version; a node
// without durability surfaces as durable.ErrNotDurable, like a local
// partition.
func (pv peerView) Checkpoint(ctx context.Context) error {
	_, err := pv.p.do(ctx, mCheckpoint, request{v: pv.v}.body(mCheckpoint), false)
	var re *shard.Refusal
	if errors.As(err, &re) && re.Code == "not_durable" {
		return durable.ErrNotDurable
	}
	return err
}

// peerFetcher serves one constraint's buckets from the pinned peer as a
// plan.BatchFetcher: a fetch step's keys for this partition travel in
// one fetch call, and a failed call fails the step — the executor
// aborts the query with the structured error instead of answering from
// a torn snapshot.
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
	body, err := f.p.do(ctx, mFetch, req, true)
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
