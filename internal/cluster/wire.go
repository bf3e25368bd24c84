// Internal wire protocol between the coordinator and shard nodes.
// Everything rides /v1/internal/* on the node's existing listener, and
// four things cross it:
//
//   - JSON control bodies: versions, transaction ids, sizes, errors;
//   - value.Key, in its text form (base64 of the raw injective
//     encoding) inside those bodies: index keys, fetched buckets (one
//     key per Y-projection) and groups — so a key round-trips
//     bit-exactly and the receiving side hashes it to the same shard
//     the sender would;
//   - checkpoint images (durable.EncodeCheckpoint) for whole
//     partitions: the load body and the dump answer;
//   - delta TSV (live.WriteDeltaTSV) for stage, the WAL record's own
//     payload.
package cluster

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/value"
)

// Content types of the bulk bodies.
const (
	tsvType   = "text/tab-separated-values"
	imageType = "application/octet-stream"
)

// The answers of status, stage and groups are shard.Status, shard.Staged
// and []shard.Group themselves, in the JSON shape their tags give.

// fetchRequest carries one fetch step's keys for this partition — every
// key of the step for a scatter, the keys that hash here for a route —
// and asks for constraint CI's buckets at the pinned version V, one per
// key, in key order.
type fetchRequest struct {
	V    uint64      `json:"v"`
	CI   int         `json:"ci"`
	Keys []value.Key `json:"keys"`
}

// fetchResponse holds one bucket per requested key, each as its
// projections' keys in canonical order (index.Bucket.Keys).
type fetchResponse struct {
	Buckets [][]value.Key `json:"buckets"`
}

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

// decodeBuckets rebuilds a peer's answer to n keys of a constraint whose
// Y has arity attributes into out, checking what NewBucket and
// MergeBuckets take on trust: one bucket per key, every projection
// exactly arity cells, projections strictly increasing.
func decodeBuckets(buckets [][]value.Key, n, arity int, out []index.Bucket) error {
	if len(buckets) != n {
		return fmt.Errorf("fetch answered %d buckets for %d keys", len(buckets), n)
	}
	total := 0
	for _, projs := range buckets {
		total += len(projs)
	}
	cells := make([]value.Value, 0, total*arity)
	for i, projs := range buckets {
		start := len(cells)
		for j, pk := range projs {
			if j > 0 && pk <= projs[j-1] {
				return fmt.Errorf("bucket %d: projections out of canonical order", i)
			}
			before := len(cells)
			var err error
			if cells, err = value.AppendDecodeKey(cells, pk); err != nil {
				return fmt.Errorf("bucket %d: %w", i, err)
			}
			if len(cells)-before != arity {
				return fmt.Errorf("bucket %d: projection of %d cells, constraint wants %d", i, len(cells)-before, arity)
			}
		}
		out[i] = index.NewBucket(cells[start:len(cells):len(cells)], arity)
	}
	return nil
}
