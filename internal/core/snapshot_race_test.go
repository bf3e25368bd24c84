package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/eval"
	"repro/internal/workload"
)

// TestSnapshotPinnedUnderApply hammers the read entry points while a
// writer applies deltas, proving two things under -race:
//
//  1. The pattern of calling Instance() then Indexed() reads the
//     snapshot pointer twice and CAN straddle an Apply — the test counts
//     how often it would have. One Indexed() read is the pinned pair: it
//     carries its own Instance.
//  2. Baseline, Plan and Explain each resolve their snapshot exactly
//     once per call: every result is internally consistent with a single
//     version, never a mix.
//
// The legacy two-call pattern below is the tear bevet's snapshottear
// analyzer exists to reject; this test measures it on purpose.
//
//bevet:allow snapshottear
func TestSnapshotPinnedUnderApply(t *testing.T) {
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: 2, AccidentsPerDay: 10, MaxVehicles: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(acc.Schema, acc.Access, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(acc.Instance); err != nil {
		t.Fatal(err)
	}
	st, err := workload.NewAccidentStream(acc, workload.AccidentStreamConfig{
		InsertAccidents: 3, DeleteAccidents: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var torn atomic.Int64
	var wg sync.WaitGroup
	q := workload.Q0()

	// Writer: applies stream batches back to back.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := eng.Apply(context.Background(), st.Next()); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Readers: pinned entry points must never observe a mixed version.
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 150; i++ {
				// The two-call pattern: count (don't fail on) the tears it
				// permits, demonstrating why bevet rejects it.
				if eng.Instance() != eng.Indexed().Instance {
					torn.Add(1)
				}
				if _, err := eng.Baseline(q, eval.HashJoin); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := eng.Plan(q); err != nil {
					t.Error(err)
					return
				}
				if _, err := eng.Explain(q, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	wg.Wait()
	if n := torn.Load(); n > 0 {
		t.Logf("the Instance()/Indexed() pattern tore %d times", n)
	}
}
