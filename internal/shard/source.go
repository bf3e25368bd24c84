package shard

import (
	"context"

	"repro/internal/access"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/schema"
)

// gatherSource is the plan.Source of one request over one cross-
// partition snapshot: each fetch step resolves to a routed (partition-
// aligned) or scatter-gather fetcher over the pinned views. The views
// are pinned to one version, so streamed results drained after later
// updates still read their own.
type gatherSource struct {
	e     *Engine
	views []View
	// sc, when non-nil, is the traced request's per-partition accounting
	// — the fetchers bump it so the profile can show route-vs-scatter
	// traffic per partition. Nil on every untraced request.
	sc *obs.ShardCounters
}

var _ plan.Source = (*gatherSource)(nil)

func (g *gatherSource) FetcherFor(c access.Constraint) plan.Fetcher {
	ci := -1
	for i, cc := range g.e.Access.Constraints {
		if cc.Rel == c.Rel && AttrsEqual(cc.X, c.X) && AttrsEqual(cc.Y, c.Y) {
			ci = i
			break
		}
	}
	if ci < 0 {
		return nil
	}
	if len(g.views) == 1 && !g.e.remote {
		// One local partition: its index IS the global index.
		return g.views[0].Fetcher(ci)
	}
	fs := make([]plan.Fetcher, len(g.views))
	for i, v := range g.views {
		if fs[i] = v.Fetcher(ci); fs[i] == nil {
			return nil
		}
	}
	parts := partitioned{fs: fs, sc: g.sc, remote: g.e.remote}
	if g.e.place.aligned(c) {
		return routedFetcher{parts}
	}
	return scatterFetcher{parts, g.e.place.groupKey(c, g.e.Access)}
}

// partitioned is what the routed and scatter fetchers share: one fetcher
// per partition, the request's traffic counters, and whether the
// partitions are asked concurrently (remote: their round trips overlap)
// or in turn on the caller's goroutine.
type partitioned struct {
	fs     []plan.Fetcher
	sc     *obs.ShardCounters
	remote bool
}

// FetchBytes completes plan.Fetcher, whose one-key signature cannot
// report a failed partition. The executor resolves every fetcher through
// plan.FetchAll, which calls FetchBatch, so nothing reaches this; a
// caller that did would be asking for an answer that might be torn.
func (partitioned) FetchBytes([]byte) index.Bucket {
	panic("shard: partitioned fetchers serve key sets through FetchBatch only")
}

// routedFetcher serves a constraint whose X equals the relation's
// partition key: the whole group D_Y(X = ā) lives on partition
// ShardOf(ā), so a fetch step asks each partition its keys map to once,
// for exactly those keys — the same lookups as unsharded. A scatter
// fetcher's step that routes by its rows shares the counting sort.
type routedFetcher struct{ partitioned }

func (f routedFetcher) FetchBatch(ctx context.Context, keys [][]byte, out []index.Bucket) error {
	return f.route(ctx, keys, keys, out)
}

// route asks partition ShardOf(routes[i]), which holds keys[i]'s group.
func (f partitioned) route(ctx context.Context, keys, routes [][]byte, out []index.Bucket) error {
	k := len(f.fs)
	// Counting sort by partition: partition p's keys are
	// grouped[start[p]:start[p+1]], in input order, and keys[i] sits at
	// grouped[slot[i]].
	part := make([]int, len(keys))
	start := make([]int, k+1)
	for i := range keys {
		part[i] = ShardOf(routes[i], k)
		start[part[i]+1]++
	}
	for p := 0; p < k; p++ {
		start[p+1] += start[p]
	}
	next := append([]int(nil), start[:k]...)
	slot := make([]int, len(keys))
	grouped := make([][]byte, len(keys))
	for i, key := range keys {
		slot[i] = next[part[i]]
		grouped[slot[i]] = key
		next[part[i]]++
	}
	// Ask only the partitions that hold keys: a point step touches one,
	// and fan calls a lone partition on this goroutine.
	busy := make([]int, 0, k)
	for p := 0; p < k; p++ {
		if start[p] < start[p+1] {
			busy = append(busy, p)
		}
	}
	got := make([]index.Bucket, len(keys))
	err := fan(len(busy), f.remote, func(j int) error {
		p := busy[j]
		lo, hi := start[p], start[p+1]
		return plan.FetchAll(ctx, f.fs[p], grouped[lo:hi], got[lo:hi])
	})
	if err != nil {
		return err
	}
	for i := range keys {
		out[i] = got[slot[i]]
		f.sc.Route(part[i], 1, int64(out[i].Len()))
	}
	return nil
}

// scatterFetcher serves a constraint not aligned with the partition
// key: the group for ā may be split across every partition, so a fetch
// step sends every partition the whole key set and merges their buckets
// per key. Buckets are in canonical (key-sorted) order everywhere, so an
// ordered merge with cross-partition dedup reproduces exactly the bucket
// a single-node index would serve — same projections, same order.
// When by is set each group lies on one partition (Placement.groupKey),
// so a step whose rows carry each key's by-values routes (FetchRouted).
type scatterFetcher struct {
	partitioned
	by []schema.Attribute
}

func (f scatterFetcher) RouteBy() []schema.Attribute { return f.by }

func (f scatterFetcher) FetchRouted(ctx context.Context, keys, routes [][]byte, out []index.Bucket) error {
	return f.route(ctx, keys, routes, out)
}

func (f scatterFetcher) FetchBatch(ctx context.Context, keys [][]byte, out []index.Bucket) error {
	k, n := len(f.fs), len(keys)
	// got[p*n+i] is partition p's share of keys[i]'s group.
	got := make([]index.Bucket, k*n)
	err := fan(k, f.remote, func(p int) error {
		return plan.FetchAll(ctx, f.fs[p], keys, got[p*n:(p+1)*n])
	})
	if err != nil {
		return err
	}
	var shares []index.Bucket
	for i := range keys {
		shares = shares[:0]
		for p := 0; p < k; p++ {
			b := got[p*n+i]
			f.sc.Scatter(p, 1, int64(b.Len()))
			if b.Len() > 0 {
				shares = append(shares, b)
			}
		}
		switch len(shares) {
		case 0:
			out[i] = index.Bucket{}
		case 1:
			// One partition held the group: serve its bucket as is.
			out[i] = shares[0]
		default:
			out[i] = index.MergeBuckets(shares)
		}
	}
	return nil
}
