package cluster

import (
	"context"
	"testing"

	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/workload"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// TestPeerFetchAllocs pins what one 16-key peer fetch costs the whole
// process — the coordinator's encode, frames and decode, the node's
// frame read, parse, lookups and answer — so a codec or a transport
// that allocates per key, per cell or per header cannot creep back
// unnoticed. A round trip measures 10 allocations.
func TestPeerFetchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the plain build's")
	}
	const ceiling = 20
	tb := randomBed(t)
	coord, _, _ := startCluster(t, tb, 1, testCooldown)
	if err := coord.Load(tb.build()); err != nil {
		t.Fatal(err)
	}
	view, err := coord.peers[0].Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	f := view.Fetcher(0).(plan.BatchFetcher)
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = []byte(keyOf(int64(i)))
	}
	out := make([]index.Bucket, len(keys))
	fetch := func() {
		if err := f.FetchBatch(context.Background(), keys, out); err != nil {
			t.Fatal(err)
		}
	}
	fetch() // open the connection outside the measurement
	if got := testing.AllocsPerRun(50, fetch); got > ceiling {
		t.Fatalf("a 16-key peer fetch costs %.0f allocations, ceiling %d", got, ceiling)
	}
	for i, b := range out {
		if b.Len() != 5 {
			t.Fatalf("key %d: bucket of %d projections, want 5", i, b.Len())
		}
	}
}

// BenchmarkClusterQ0 serves a 64-variant mix of Example 1.1's Q0 (each
// a district and a date of its own) through a coordinator over 4 shard
// nodes on loopback httptest servers: beyond one engine's work, what it
// measures is peer calls on framed connections, their codec and the
// merge.
func BenchmarkClusterQ0(b *testing.B) {
	tb := testbed{
		schema: workload.AccidentSchema(),
		access: workload.AccidentConstraints(),
		build: func() *data.Instance {
			acc, err := workload.GenerateAccidents(workload.AccidentConfig{
				Days: 30, AccidentsPerDay: 40, MaxVehicles: 6, Seed: 11,
			})
			if err != nil {
				b.Fatal(err)
			}
			return acc.Instance
		},
	}
	coord, _, _ := startCluster(b, tb, 4, testCooldown)
	if err := coord.Load(tb.build()); err != nil {
		b.Fatal(err)
	}
	qs := make([]*cq.CQ, 64)
	for i := range qs {
		qs[i] = workload.Q0()
		qs[i].Atoms[0].Args[1] = cq.Const(sv(workload.Districts[i%len(workload.Districts)]))
		qs[i].Atoms[0].Args[2] = cq.Const(sv(workload.DateName(i % 30)))
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := coord.Query(ctx, qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}
