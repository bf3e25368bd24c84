package cluster

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
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
