package cluster

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/shard"
)

// spanSums walks a span tree accumulating per-operator accounting,
// keeping the plan-step fetch spans separate from the synthesized
// per-partition counter spans (which report the SAME traffic pre-merge
// and would otherwise double-count). The counter spans are labelled by
// partition kind — "shard N …" for an in-process fleet, "peer N …" as
// soon as any partition is remote — and so is the scan-fallback merge
// span, which reports rows, not fetches.
type spanSums struct {
	fetched, keys, scanned int64
	partFetched            int64
	partSpans              map[string]int // by label: "shard", "peer"
	planSpans              int
}

func sumSpans(s *obs.Span, acc *spanSums) {
	label, _, _ := strings.Cut(s.Name, " ")
	switch {
	case s.Name == "shard.merge" || s.Name == "cluster.merge":
	case label == "shard" || label == "peer":
		acc.partFetched += s.Fetched
		acc.partSpans[label]++
	case s.Name == "plan" || s.Name == "plan.envelope":
		acc.planSpans++
	default:
		acc.fetched += s.Fetched
		acc.keys += s.Keys
		acc.scanned += s.Scanned
	}
	for _, c := range s.Children {
		sumSpans(c, acc)
	}
}

// TestPropertyProfileReconcilesWithStats is the profile's accounting
// contract: over random CQs, on the single-node engine and on every
// fleet kind for K ∈ {1, 2, 4}, the span tree's per-operator fetch/scan
// counts sum to exactly the request's Result.Stats, the root span's
// wall-clock covers the engine-measured elapsed time, and the
// per-partition counter spans carry the right label, appear exactly
// when the request fetched anything, and their pre-merge traffic meets
// or exceeds the post-merge Stats.Fetched. A drift here means the
// profile lies about where the request's budget went.
func TestPropertyProfileReconcilesWithStats(t *testing.T) {
	tb := accidentsBed(t)
	qs, _ := tb.queries(t, 40)

	check := func(t *testing.T, eng core.Queryable, wantLabel string) {
		for _, q := range qs {
			tr := obs.NewTrace("query")
			ctx := obs.NewContext(context.Background(), tr)
			res, err := eng.Query(ctx, q)
			root := tr.Finish()
			if err != nil {
				continue // refusals and planning errors carry no profile contract
			}
			acc := spanSums{partSpans: map[string]int{}}
			sumSpans(root, &acc)
			if acc.fetched != res.Stats.Fetched {
				t.Errorf("%s: fetch spans sum to %d fetched, Stats.Fetched = %d", q.Label, acc.fetched, res.Stats.Fetched)
			}
			if acc.keys != res.Stats.FetchKeys {
				t.Errorf("%s: fetch spans sum to %d keys, Stats.FetchKeys = %d", q.Label, acc.keys, res.Stats.FetchKeys)
			}
			if acc.scanned != res.Stats.Scanned {
				t.Errorf("%s: scan spans sum to %d scanned, Stats.Scanned = %d", q.Label, acc.scanned, res.Stats.Scanned)
			}
			if res.Mode == core.ViaBoundedPlan && acc.planSpans == 0 {
				t.Errorf("%s: bounded-plan request has no plan span", q.Label)
			}
			if root.ElapsedNS < res.Stats.Elapsed.Nanoseconds() {
				t.Errorf("%s: root span %dns shorter than Stats.Elapsed %dns",
					q.Label, root.ElapsedNS, res.Stats.Elapsed.Nanoseconds())
			}
			for label, n := range acc.partSpans {
				if label != wantLabel {
					t.Errorf("%s: %d %q spans in a trace that should carry only %q", q.Label, n, label, wantLabel)
				}
			}
			if wantLabel != "" && res.Stats.Fetched > 0 {
				if acc.partSpans[wantLabel] == 0 {
					t.Errorf("%s: fetched %d tuples but no per-%s spans", q.Label, res.Stats.Fetched, wantLabel)
				}
				if acc.partFetched < res.Stats.Fetched {
					t.Errorf("%s: %s spans carry %d rows < Stats.Fetched %d",
						q.Label, wantLabel, acc.partFetched, res.Stats.Fetched)
				}
			}
		}
	}

	t.Run("single", func(t *testing.T) { check(t, tb.single(t), "") })
	eachFleet(t, []int{1, 2, 4}, func(t *testing.T, kind string, k int) {
		wantLabel := "peer"
		if kind == "local" {
			wantLabel = "shard"
			if k == 1 {
				// One local partition serves its index directly: there
				// is no per-partition accounting to emit.
				wantLabel = ""
			}
		}
		check(t, loadedFleet(t, tb, kind, k).eng, wantLabel)
	})
}

// fetchCounter counts the fetch calls a coordinator's peers send.
type fetchCounter struct {
	fetches atomic.Int64
}

// install counts every fetch frame peers send.
func (c *fetchCounter) install(peers ...*peerClient) {
	for _, p := range peers {
		p.exchange = func(pc *peerConn, m method, body []byte) (int, []byte, error) {
			if m == mFetch {
				c.fetches.Add(1)
			}
			return pc.roundTrip(m, body)
		}
	}
}

// stepRecorder is a plan.Source over one index whose fetchers record each
// fetch step's key set: FetchAll hands a batch fetcher a step's keys in
// one call. A step over a constraint whose groups each lie on one
// partition (routeBy) also records each key's partition key, when the
// executor can give it.
type stepRecorder struct {
	src     plan.Source
	routeBy func(access.Constraint) []schema.Attribute
	steps   []recordedStep
}

type recordedStep struct {
	c            access.Constraint
	keys, routes [][]byte
}

type recordingFetcher struct {
	f   plan.Fetcher
	c   access.Constraint
	rec *stepRecorder
}

func (r *stepRecorder) FetcherFor(c access.Constraint) plan.Fetcher {
	if f := r.src.FetcherFor(c); f != nil {
		return recordingFetcher{f: f, c: c, rec: r}
	}
	return nil
}

func (f recordingFetcher) FetchBatch(ctx context.Context, keys [][]byte, out []index.Bucket) error {
	return f.FetchRouted(ctx, keys, nil, out)
}

func (f recordingFetcher) RouteBy() []schema.Attribute { return f.rec.routeBy(f.c) }

func (f recordingFetcher) FetchRouted(ctx context.Context, keys, routes [][]byte, out []index.Bucket) error {
	step := recordedStep{c: f.c}
	for i, k := range keys {
		step.keys = append(step.keys, append([]byte(nil), k...))
		if routes != nil {
			step.routes = append(step.routes, append([]byte(nil), routes[i]...))
		}
	}
	f.rec.steps = append(f.rec.steps, step)
	return plan.FetchAll(ctx, f.f, keys, out)
}

// groupOnOnePartition restates the routing rule's condition on the
// constraints: some R(X′ → Y′, 1) in a has X′ ⊆ X_c and P ⊆ X′ ∪ Y′.
func groupOnOnePartition(a *access.Schema, c access.Constraint, p []schema.Attribute) bool {
	for _, fd := range a.Constraints {
		ok := fd.Rel == c.Rel && fd.Card.IsConst() && fd.Card.Const == 1
		for _, x := range fd.X {
			ok = ok && slices.Contains(c.X, x)
		}
		for _, x := range p {
			ok = ok && (slices.Contains(fd.X, x) || slices.Contains(fd.Y, x))
		}
		if ok {
			return true
		}
	}
	return false
}

func (f recordingFetcher) FetchBytes(k []byte) index.Bucket { return f.f.FetchBytes(k) }

// TestPropertyOneRPCPerPartitionPerStep is the batching property over
// the wire: on networked fleets of K ∈ {2, 4}, every random CQ and UCQ
// sends exactly one fetch call per partition each of its fetch steps
// touches — the distinct ShardOf values of the keys of an aligned step,
// of the keys' partition keys for a step whose rows carry them and whose
// groups each lie on one partition, all K for a scattered one — so at
// most K per fetch step, and none for a scan. The steps, their key sets
// and their partition keys are recomputed by running the plan the
// coordinator served on the single-node oracle's index.
func TestPropertyOneRPCPerPartitionPerStep(t *testing.T) {
	ctx := context.Background()
	for _, tb := range []testbed{accidentsBed(t), socialBed(t), randomBed(t)} {
		qs, unions := tb.queries(t, 40)
		queries := make([]core.Query, 0, len(qs)+len(unions))
		for _, q := range qs {
			queries = append(queries, q)
		}
		for _, u := range unions {
			queries = append(queries, u)
		}
		single := tb.single(t)
		for _, k := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/K=%d", tb.name, k), func(t *testing.T) {
				rt := &fetchCounter{}
				coord, _, _ := startCluster(t, tb, k, testCooldown)
				rt.install(coord.peers...)
				if err := coord.Load(tb.build()); err != nil {
					t.Fatal(err)
				}
				batched, routedBy := 0, 0
				for i, q := range queries {
					before := rt.fetches.Load()
					res, err := coord.Query(ctx, q)
					sent := rt.fetches.Load() - before
					if err != nil {
						continue
					}
					var want, steps int64
					if res.Plan != nil {
						for _, op := range res.Plan.Steps {
							if _, ok := op.(plan.FetchOp); ok {
								steps++
							}
						}
						rec := &stepRecorder{src: plan.NewSource(single.Indexed()), routeBy: func(c access.Constraint) []schema.Attribute {
							if p := coord.PartitionKey(c.Rel); groupOnOnePartition(tb.access, c, p) {
								return p
							}
							return nil
						}}
						if _, _, err := plan.ExecuteSource(ctx, res.Plan, rec, plan.ExecOptions{}); err != nil {
							t.Fatal(err)
						}
						for _, s := range rec.steps {
							owners := s.routes
							switch {
							case shard.AttrsEqual(coord.PartitionKey(s.c.Rel), s.c.X):
								owners = s.keys
							case owners == nil:
								want += int64(k)
								continue
							default:
								routedBy++
							}
							touched := map[int]bool{}
							for _, key := range owners {
								touched[shard.ShardOf(key, k)] = true
							}
							want += int64(len(touched))
						}
					}
					if sent != want || sent > int64(k)*steps {
						t.Fatalf("query %d (%s): %d fetch RPCs, want %d (≤ %d partitions × %d fetch steps)",
							i, res.Mode, sent, want, k, steps)
					}
					if sent > steps {
						batched++
					}
				}
				if batched == 0 {
					t.Fatal("no query sent more RPCs than it had fetch steps: the fan-out was not exercised")
				}
				if len(tb.extra) > 0 && routedBy == 0 {
					t.Fatal("no step routed by its rows' partition key: the testbed's Q0 variants did not route")
				}
			})
		}
	}
}
