// Internal wire protocol between the coordinator and shard nodes. A
// coordinator dials a node's one listener, sends
//
//	GET /v1/internal/conn HTTP/1.1
//	Connection: Upgrade
//	Upgrade: beserve-partition/1
//
// and the node answers 101 Switching Protocols and hijacks the
// connection. From then on every shard.Partition call is one request
// frame and one answer frame, one call in flight per connection:
//
//	request: uvarint method, uvarint n, n body bytes
//	answer:  uvarint status, uvarint n, n body bytes
//
// The status is the HTTP status the call would have had: 200 with the
// call's answer, or a refusal's status with the {"error":{code,message}}
// envelope. A body of at most maxInternalBody bytes is read only as it
// arrives, so a length that lies costs no memory. Any other request to
// /v1/internal/*, or an upgrade naming another protocol, answers 426
// upgrade_required. Five things ride in the bodies:
//
//   - JSON control bodies: versions, transaction ids, sizes, errors;
//   - the binary fetch exchange: a step's X-keys and their buckets, each
//     tuple as its raw value.Key cells (the bytes Bucket.AppendKeyOf
//     writes) with uvarint counts and lengths — no base64, no JSON;
//   - value.Key in its text form (base64 of the raw injective encoding)
//     inside the group bodies of the write path, the one place keys
//     still ride JSON — so a key round-trips bit-exactly and the
//     receiving side hashes it to the same shard the sender would;
//   - checkpoint images (durable.EncodeCheckpoint) for whole
//     partitions: the load body and the dump answer;
//   - delta TSV (live.WriteDeltaTSV) for stage, the WAL record's own
//     payload, behind the stage's base version and transaction id.
//
// Nothing authenticates or encrypts a connection: the wire is for a
// trusted network between one coordinator and its nodes.
package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/value"
)

// wireProtocol is the Upgrade token of the framed partition wire, and
// connPath the one internal path a node answers: the upgrade to it.
const (
	wireProtocol = "beserve-partition/1"
	connPath     = "/v1/internal/conn"
)

// maxInternalBody bounds a frame's body (deltas, partition images).
// Generous — this wire is coordinator-to-node, not public — but still
// bounded so a confused peer cannot balloon memory.
const maxInternalBody = 1 << 30

// method names a shard.Partition call on the wire: a request frame's
// head.
type method uint8

const (
	mStatus method = 1 + iota
	mLoad
	mStage
	mMaxGroup
	mGroups
	mCommit
	mAbort
	mRollback
	mFetch
	mDump
	mCheckpoint
	numMethods
)

var methodNames = [numMethods]string{
	mStatus: "status", mLoad: "load", mStage: "stage", mMaxGroup: "maxgroup",
	mGroups: "groups", mCommit: "commit", mAbort: "abort", mRollback: "rollback",
	mFetch: "fetch", mDump: "dump", mCheckpoint: "checkpoint",
}

func (m method) String() string {
	if m < numMethods && methodNames[m] != "" {
		return methodNames[m]
	}
	return fmt.Sprintf("method %d", uint8(m))
}

// writeFrame writes one frame — head, body length, body — and flushes
// it.
func writeFrame(w *bufio.Writer, head uint64, body []byte) error {
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], head)
	n += binary.PutUvarint(hdr[n:], uint64(len(body)))
	w.Write(hdr[:n]) // a failed write sticks in w and surfaces at Flush
	w.Write(body)
	return w.Flush()
}

// readFrame reads one frame. io.EOF means the peer closed the
// connection between frames; a frame cut short anywhere is
// io.ErrUnexpectedEOF. The body is the caller's own: nothing else holds
// it.
func readFrame(r *bufio.Reader) (head uint64, body []byte, err error) {
	if head, err = readUvarint(r); err != nil {
		return 0, nil, err
	}
	n, err := readUvarint(r)
	if err != nil {
		return 0, nil, noEOF(err)
	}
	if n > maxInternalBody {
		return 0, nil, fmt.Errorf("frame: %d-byte body exceeds the %d-byte limit", n, maxInternalBody)
	}
	const eager = 64 << 10
	if n <= eager {
		body = make([]byte, n)
		_, err = io.ReadFull(r, body)
		return head, body, noEOF(err)
	}
	// A long body grows with the bytes that arrive, not with the length
	// the frame claims.
	if body, err = io.ReadAll(io.LimitReader(r, int64(n))); err == nil && uint64(len(body)) < n {
		err = io.ErrUnexpectedEOF
	}
	return head, body, err
}

// readRequest reads a node's next request frame.
func readRequest(r *bufio.Reader) (method, []byte, error) {
	head, body, err := readFrame(r)
	if err == nil && head > math.MaxUint8 {
		err = fmt.Errorf("frame: method %d is not a method", head)
	}
	return method(head), body, err
}

// readAnswer reads the answer frame to the request a client sent.
func readAnswer(r *bufio.Reader) (status int, body []byte, err error) {
	head, body, err := readFrame(r)
	if err == nil && (head < 100 || head > 599) {
		err = fmt.Errorf("frame: status %d is not a status", head)
	}
	return int(head), body, noEOF(err)
}

// readUvarint reads a minimal uvarint (see uvarint) byte by byte.
func readUvarint(r *bufio.Reader) (uint64, error) {
	var buf [binary.MaxVarintLen64]byte
	for i := range buf {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 {
				err = noEOF(err)
			}
			return 0, err
		}
		buf[i] = b
		if b < 0x80 {
			x, n := uvarint(buf[:i+1])
			if n == 0 {
				return 0, errors.New("frame: non-minimal or overflowing uvarint")
			}
			return x, nil
		}
	}
	return 0, errors.New("frame: uvarint overflows 64 bits")
}

// noEOF reports an EOF inside a frame as the truncation it is.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// The answers of status, stage and groups are shard.Status, shard.Staged
// and []shard.Group themselves, in the JSON shape their tags give.

// maxGroupResponse answers a maxgroup call (a groupsRequest without
// keys): the post-delta MaxGroup of constraint CI — the staged index
// when transaction Txn touched it, the committed version-V index
// otherwise. Used for the shrink-|D| recheck of aligned constraints.
type maxGroupResponse struct {
	Max int `json:"max"`
}

// groupsRequest asks for the projection-key sets of constraint CI's
// post-delta buckets: for the named keys, or for every key when All is
// set. The coordinator unions the per-node sets to measure true group
// sizes of constraints whose groups straddle shards.
type groupsRequest struct {
	Txn  string      `json:"txn"`
	V    uint64      `json:"v"`
	CI   int         `json:"ci"`
	Keys []value.Key `json:"keys,omitempty"`
	All  bool        `json:"all,omitempty"`
}

type groupsResponse struct {
	Groups []shard.Group `json:"groups"`
}

// commitRequest publishes staged transaction Txn on top of committed
// version V, answering a versionResponse. Idempotent: a node that
// already committed Txn answers with the same result again.
type commitRequest struct {
	Txn string `json:"txn"`
	V   uint64 `json:"v"`
}

type abortRequest struct {
	Txn string `json:"txn"`
}

// versionRequest names the version a rollback returns to, a dump reads
// or a checkpoint persists.
type versionRequest struct {
	V uint64 `json:"v"`
}

type versionResponse struct {
	Version uint64 `json:"version"`
	Size    int    `json:"size"`
}

// wireError is the {"error":{code,message}} envelope a refused call
// answers with — the same shape as the public API's, so a coordinator
// can propagate a peer's code outward unchanged.
type wireError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// A stage request carries the base version, the transaction id and the
// partition's sub-delta as delta TSV:
//
//	uvarint base, uvarint len, len txn bytes, delta TSV

// appendStageRequest appends the stage request of txn on base to dst.
func appendStageRequest(dst []byte, txn string, base uint64, tsv []byte) []byte {
	dst = binary.AppendUvarint(dst, base)
	dst = binary.AppendUvarint(dst, uint64(len(txn)))
	dst = append(dst, txn...)
	return append(dst, tsv...)
}

// parseStageRequest is appendStageRequest's inverse; tsv aliases body.
func parseStageRequest(body []byte) (txn string, base uint64, tsv []byte, err error) {
	base, at := uvarint(body)
	if at == 0 {
		return "", 0, nil, errors.New("stage request: truncated or non-minimal base")
	}
	l, w := uvarint(body[at:])
	if w == 0 || l == 0 || l > uint64(len(body)-at-w) {
		return "", 0, nil, errors.New("stage request: missing or overrunning transaction id")
	}
	at += w
	return string(body[at : at+int(l)]), base, body[at+int(l):], nil
}

// A fetch request carries one fetch step's keys
// for this partition — every key of the step for a scatter, the keys
// that hash here for a route — and asks for constraint CI's buckets at
// the pinned version V, one per key, in key order:
//
//	uvarint V, uvarint CI, uvarint n, n × (uvarint len, len key bytes)
//
// Its answer is the n buckets in request order, each a uvarint
// projection count m and then m projections of |Y| cells each in the
// value.Key cell encoding, in canonical (strictly increasing) order:
//
//	n × (uvarint m, m × |Y| cells)
//
// Every uvarint is minimal, so a body either decodes and re-encodes byte
// for byte or is refused.

// appendFetchRequest appends the fetch request for keys of constraint
// ci at version v to dst.
func appendFetchRequest(dst []byte, v, ci uint64, keys [][]byte) []byte {
	dst = binary.AppendUvarint(dst, v)
	dst = binary.AppendUvarint(dst, ci)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
	}
	return dst
}

// parseFetchRequest is appendFetchRequest's inverse; the keys alias
// body. The key count and every key length are checked against the
// bytes left before anything is allocated or sliced, so a hostile count
// cannot balloon memory.
func parseFetchRequest(body []byte) (v, ci uint64, keys [][]byte, err error) {
	var head [3]uint64
	at := 0
	for i := range head {
		x, w := uvarint(body[at:])
		if w == 0 {
			return 0, 0, nil, errors.New("fetch request: truncated or non-minimal header")
		}
		head[i], at = x, at+w
	}
	n := head[2]
	if n > uint64(len(body)-at) {
		// Every key costs at least its length byte.
		return 0, 0, nil, fmt.Errorf("fetch request: %d keys in %d bytes", n, len(body)-at)
	}
	keys = make([][]byte, n)
	for i := range keys {
		l, w := uvarint(body[at:])
		if w == 0 {
			return 0, 0, nil, fmt.Errorf("fetch request: key %d: truncated or non-minimal length", i)
		}
		at += w
		if l > uint64(len(body)-at) {
			return 0, 0, nil, fmt.Errorf("fetch request: key %d of %d bytes overruns the body", i, l)
		}
		keys[i] = body[at : at+int(l) : at+int(l)]
		at += int(l)
	}
	if at != len(body) {
		return 0, 0, nil, fmt.Errorf("fetch request: %d trailing bytes", len(body)-at)
	}
	return head[0], head[1], keys, nil
}

// appendBuckets appends the fetch answer for buckets to dst.
func appendBuckets(dst []byte, buckets []index.Bucket) []byte {
	for _, b := range buckets {
		dst = binary.AppendUvarint(dst, uint64(b.Len()))
		for i := 0; i < b.Len(); i++ {
			dst = b.AppendKeyOf(dst, i)
		}
	}
	return dst
}

// decodeBuckets rebuilds a peer's answer to n keys of a constraint whose
// Y has arity attributes into out, checking what NewBucket and
// MergeBuckets take on trust: exactly n buckets and no trailing bytes,
// every projection exactly arity well-formed cells, projections strictly
// increasing on their raw bytes. A first pass checks the shape and
// counts the cells; a second decodes them into one arena of exactly
// that size. Decoded strings share one copy of body.
func decodeBuckets(body []byte, n, arity int, out []index.Bucket) error {
	key := value.Key(body)
	cells, at := 0, 0
	for i := 0; i < n; i++ {
		if at == len(body) {
			return fmt.Errorf("fetch answered %d buckets for %d keys", i, n)
		}
		m, w := uvarint(body[at:])
		if w == 0 {
			return fmt.Errorf("bucket %d: truncated or non-minimal projection count", i)
		}
		at += w
		// Every cell costs at least its kind byte.
		if m > uint64(len(body)-at)/uint64(arity) {
			return fmt.Errorf("bucket %d: %d projections overrun the body", i, m)
		}
		var prev value.Key
		for j := 0; j < int(m); j++ {
			start := at
			for c := 0; c < arity; c++ {
				var err error
				if _, at, err = value.DecodeKeyCell(key, at); err != nil {
					return fmt.Errorf("bucket %d: %w", i, err)
				}
			}
			if j > 0 && key[start:at] <= prev {
				return fmt.Errorf("bucket %d: projections out of canonical order", i)
			}
			prev = key[start:at]
		}
		cells += int(m) * arity
	}
	if at != len(body) {
		return fmt.Errorf("fetch answered %d bytes past its %d buckets", len(body)-at, n)
	}
	arena := make([]value.Value, cells)
	at, c := 0, 0
	for i := 0; i < n; i++ {
		m, w := uvarint(body[at:])
		at += w
		start := c
		for end := c + int(m)*arity; c < end; c++ {
			arena[c], at, _ = value.DecodeKeyCell(key, at)
		}
		out[i] = index.NewBucket(arena[start:c:c], arity)
	}
	return nil
}

// uvarint is binary.Uvarint refusing a non-minimal encoding (a last
// group of zero), so every count and length a fetch body carries has
// exactly one encoding. It reports 0 bytes read on bad input.
func uvarint(b []byte) (uint64, int) {
	x, n := binary.Uvarint(b)
	if n <= 0 || n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return x, n
}
