package shard

import (
	"sync"

	"repro/internal/access"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/plan"
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
	rd Read
}

var _ plan.Source = (*gatherSource)(nil)

// FetchErr reports the first failure a remote fetcher swallowed (the
// optional plan.Source extension the executor polls after every step).
// Local views never set one.
func (g *gatherSource) FetchErr() error { return g.rd.Err() }

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
	fs := make([]plan.Fetcher, len(g.views))
	for i, v := range g.views {
		if fs[i] = v.Fetcher(&g.rd, ci); fs[i] == nil {
			return nil
		}
	}
	switch {
	case len(fs) == 1 && !g.e.remote:
		// One local partition: its index IS the global index.
		return fs[0]
	case len(fs) == 1 || g.e.place.aligned(c):
		return routedFetcher{fs: fs, sc: g.sc}
	case g.e.remote:
		return scatterFetcher{fs: fs, sc: g.sc, rd: &g.rd}
	default:
		return scatterFetcher{fs: fs, sc: g.sc}
	}
}

// routedFetcher serves a constraint whose X equals the relation's
// partition key: the whole group D_Y(X = ā) lives on partition
// ShardOf(ā), so a fetch is one lookup on one partition — the same cost
// as unsharded.
type routedFetcher struct {
	fs []plan.Fetcher
	sc *obs.ShardCounters
}

func (f routedFetcher) FetchBytes(k []byte) index.Bucket {
	i := ShardOf(k, len(f.fs))
	b := f.fs[i].FetchBytes(k)
	if f.sc != nil {
		f.sc.Route(i, 1, int64(b.Len()))
	}
	return b
}

// scatterFetcher serves a constraint not aligned with the partition
// key: the group for ā may be split across every partition, so the
// fetch queries all K and merges their buckets. Buckets are in
// canonical (key-sorted) order everywhere, so an ordered merge with
// cross-partition dedup reproduces exactly the bucket a single-node
// index would serve — same projections, same order.
type scatterFetcher struct {
	fs []plan.Fetcher
	sc *obs.ShardCounters
	// rd is set when partitions are remote: their round trips overlap
	// (one goroutine per partition) and a failure anywhere voids the
	// merge. Local partitions are asked in turn, with no goroutine.
	rd *Read
}

// gather asks every partition for k at once. It is its own function so
// that what the goroutines capture escapes here, not on the local path.
func (f scatterFetcher) gather(k []byte) []index.Bucket {
	gathered := make([]index.Bucket, len(f.fs))
	var wg sync.WaitGroup
	for i := range f.fs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gathered[i] = f.fs[i].FetchBytes(k)
		}(i)
	}
	wg.Wait()
	return gathered
}

func (f scatterFetcher) FetchBytes(k []byte) index.Bucket {
	var gathered []index.Bucket
	if f.rd != nil {
		if f.rd.Err() != nil {
			return index.Bucket{}
		}
		if gathered = f.gather(k); f.rd.Err() != nil {
			return index.Bucket{}
		}
	}
	var first index.Bucket
	var parts []index.Bucket
	for i, fx := range f.fs {
		var b index.Bucket
		if gathered != nil {
			b = gathered[i]
		} else {
			b = fx.FetchBytes(k)
		}
		if f.sc != nil {
			f.sc.Scatter(i, 1, int64(b.Len()))
		}
		if b.Len() == 0 {
			continue
		}
		if first.Len() == 0 && parts == nil {
			first = b
			continue
		}
		if parts == nil {
			parts = []index.Bucket{first}
		}
		parts = append(parts, b)
	}
	if parts == nil {
		// Zero or one partition held the group: serve its bucket as is.
		return first
	}
	return index.MergeBuckets(parts)
}
