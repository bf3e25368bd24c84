// Internal wire protocol between the coordinator and shard nodes.
// Everything rides /v1/internal/* on the node's existing listener, and
// five things cross it:
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
//     payload.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/value"
)

// Content types of the bulk bodies: delta TSV, and the binary fetch
// exchange and checkpoint images.
const (
	tsvType    = "text/tab-separated-values"
	binaryType = "application/octet-stream"
)

// The answers of status, stage and groups are shard.Status, shard.Staged
// and []shard.Group themselves, in the JSON shape their tags give.

// maxGroupResponse answers POST /v1/internal/maxgroup (a groupsRequest
// without keys): the post-delta MaxGroup of constraint CI — the staged
// index when transaction Txn touched it, the committed version-V index
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

type rollbackRequest struct {
	V uint64 `json:"v"`
}

type versionResponse struct {
	Version uint64 `json:"version"`
	Size    int    `json:"size"`
}

// wireError is the {"error":{code,message}} envelope internal endpoints
// answer failures with — the same shape as the public API's, so a
// coordinator can propagate a peer's code outward unchanged.
type wireError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// A fetch request (POST /v1/internal/fetch) carries one fetch step's keys
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
