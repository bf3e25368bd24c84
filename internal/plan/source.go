package plan

import (
	"context"

	"repro/internal/access"
	"repro/internal/index"
	"repro/internal/schema"
)

// Fetcher resolves the index lookups of one fetch step: given an encoded
// X-key ā (raw bytes, typically a reused scratch buffer — the probe
// copies nothing) it returns D_Y(X = ā), the distinct Y-projections in
// canonical (key-sorted) order as an immutable index.Bucket view.
// *index.Index implements it directly. The executor reaches every
// Fetcher through FetchAll, so a Fetcher that can fail — a networked
// one — implements BatchFetcher as well and reports its failures there.
//
// A bucket is a set: no two of its projections are equal. The executor
// relies on it to append a fetch step's rows without a dedup pass (see
// sink), so every implementer keeps it, however it fills a bucket: an
// index stores each group's projections once, index.MergeBuckets drops
// the projections partitions share, and the peer fetch decoder refuses
// an answer whose projections are not strictly increasing.
type Fetcher interface {
	FetchBytes(k []byte) index.Bucket
}

// BatchFetcher is a Fetcher that resolves a fetch step's whole key set in
// one call — the paper's fetch(X ∈ T, R, Y) over the set T — and can fail:
// a sharded source groups the keys by partition, a networked one sends
// each partition one request. FetchBatch fills out[i] with the bucket of
// keys[i] (len(out) == len(keys)); on an error out is unspecified and the
// executor aborts the query, so a failed partition never yields a torn
// answer. keys may alias the caller's scratch: implementations copy what
// they keep past the call.
type BatchFetcher interface {
	FetchBatch(ctx context.Context, keys [][]byte, out []index.Bucket) error
}

// RoutingFetcher is a Fetcher over partitioned data that can ask one
// partition per key, given the RouteBy values (the partition key) of a
// tuple in each key's group; RouteBy is nil when it cannot. When the
// step's FetchOp.Tuple holds every RouteBy attribute, the executor calls
// FetchRouted, not FetchAll, with routes[i] their value.Key encoding
// from keys[i]'s first input row.
type RoutingFetcher interface {
	RouteBy() []schema.Attribute
	FetchRouted(ctx context.Context, keys, routes [][]byte, out []index.Bucket) error
}

// FetchAll resolves keys into out through f: one FetchBatch call when f
// is a BatchFetcher, a FetchBytes loop observing ctx otherwise. An empty
// key set makes no call.
func FetchAll(ctx context.Context, f Fetcher, keys [][]byte, out []index.Bucket) error {
	if len(keys) == 0 {
		return nil
	}
	if bf, ok := f.(BatchFetcher); ok {
		return bf.FetchBatch(ctx, keys, out)
	}
	for i, k := range keys {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		out[i] = f.FetchBytes(k)
	}
	return nil
}

// Source is the data-access surface a plan executes against: it resolves
// each fetch step's access constraint to a Fetcher once, up front.
// NewSource adapts the single-node *access.Indexed; internal/shard
// provides a scatter-gather implementation over hash-partitioned shards.
// FetcherFor returns nil when the source has no index for c, which fails
// the fetch step with a descriptive error.
type Source interface {
	FetcherFor(c access.Constraint) Fetcher
}

// indexedSource is the single-node Source: constraints resolve to the
// indexes of one access.Indexed.
type indexedSource struct{ ix *access.Indexed }

func (s indexedSource) FetcherFor(c access.Constraint) Fetcher {
	if idx := s.ix.IndexFor(c); idx != nil {
		return idx
	}
	return nil
}

// NewSource adapts an indexed instance to the Source interface plans
// execute against.
func NewSource(ix *access.Indexed) Source { return indexedSource{ix} }
