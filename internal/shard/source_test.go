package shard

import (
	"context"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/plan"
)

// bucketText renders a bucket's projections injectively, in order.
func bucketText(b index.Bucket) string {
	var sb strings.Builder
	for i := 0; i < b.Len(); i++ {
		sb.Write(b.AppendKeyOf(nil, i))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestPartitionedFetchersMatchIndex pins the batch fetchers of an
// in-process fleet against the unsharded index: for every constraint,
// routed or scattered, one FetchBatch over every X-value of the instance
// plus one that matches nothing answers exactly the buckets the
// single-node index serves, in key order; the traffic counters see one
// route per key, or one scatter per key per partition; and the one-key
// FetchBytes, which could not report a failed partition, refuses.
func TestPartitionedFetchersMatchIndex(t *testing.T) {
	const k = 4
	single, sharded := newAccidents(t, k, 3)
	kinds := map[string]bool{}
	for ci, c := range sharded.Access.Constraints {
		want := single.Indexed().Index(ci)
		keys := [][]byte{[]byte("no such key")}
		for _, key := range want.Keys() {
			keys = append(keys, []byte(key))
		}
		tr := obs.NewTrace("fetch")
		src := &gatherSource{e: sharded, views: sharded.snap.Load().views, sc: obs.NewShardCounters(tr, k)}
		f := src.FetcherFor(c)
		bf, ok := f.(plan.BatchFetcher)
		if !ok {
			t.Fatalf("%s: %T is not a batch fetcher", c, f)
		}
		out := make([]index.Bucket, len(keys))
		if err := bf.FetchBatch(context.Background(), keys, out); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		for i, key := range keys {
			if got, w := bucketText(out[i]), bucketText(want.FetchBytes(key)); got != w {
				t.Fatalf("%s key %d: bucket\n%s\nwant\n%s", c, i, got, w)
			}
		}

		var route, scatter int64
		for _, s := range tr.Finish().Children {
			switch {
			case strings.HasSuffix(s.Name, " route"):
				route += s.Keys
			case strings.HasSuffix(s.Name, " scatter"):
				scatter += s.Keys
			}
		}
		n := int64(len(keys))
		switch f.(type) {
		case routedFetcher:
			kinds["route"] = true
			if route != n || scatter != 0 {
				t.Errorf("%s: routed %d keys counted %d routes, %d scatters", c, n, route, scatter)
			}
		case scatterFetcher:
			kinds["scatter"] = true
			if scatter != k*n || route != 0 {
				t.Errorf("%s: scattered %d keys over %d partitions counted %d scatters, %d routes", c, n, k, scatter, route)
			}
		default:
			t.Fatalf("%s: unexpected fetcher %T", c, f)
		}

		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: FetchBytes answered instead of refusing", c)
				}
			}()
			f.FetchBytes(keys[1])
		}()
	}
	if !kinds["route"] || !kinds["scatter"] {
		t.Fatalf("fetcher kinds exercised: %v, want both", kinds)
	}
}
