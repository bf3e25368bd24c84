// Crash-injection suite: the durability claims in this package are about
// kill -9, so the tests deliver one. A child process (this test binary
// re-exec'd against TestCrashHelper) runs a realistic script — load a
// demo, apply stream deltas, checkpoint midway — with a durable.Hook
// that os.Exit(3)s at the Nth firing of one injection point. The parent
// then recovers a fresh engine from the dir the child died over and
// demands the core guarantee: the recovered state is EXACTLY the state
// after some prefix of the committed deltas — byte-identical query
// output and size versus an in-memory engine replayed to the recovered
// version — and the recovered engine accepts the next delta as if the
// crash never happened. Never a torn or invented state, at any of the
// fsync/rename boundaries, for either demo schema, on fleets of one and
// of four partitions.
package durable_test

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/live"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/workload"
)

// crashDeltas is how many stream deltas the child applies; the midway
// checkpoint lands after the second.
const crashDeltas = 4

// crashWorkload is one deterministic scenario: a base instance, a query
// to fingerprint state with, and a fresh replayable delta stream.
type crashWorkload struct {
	sc   *schema.Schema
	a    *access.Schema
	inst *data.Instance
	q    *cq.CQ
	next func() *live.Delta
}

// crashLoad rebuilds the scenario from scratch — every call returns the
// identical instance and delta sequence, which is what lets the parent
// replay the child's exact writes into a reference engine.
func crashLoad(t testing.TB, kind string) *crashWorkload {
	t.Helper()
	switch kind {
	case "accidents":
		acc, err := workload.GenerateAccidents(workload.AccidentConfig{
			Days: 2, AccidentsPerDay: 10, MaxVehicles: 3, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := workload.NewAccidentStream(acc, workload.AccidentStreamConfig{
			InsertAccidents: 3, DeleteAccidents: 1, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return &crashWorkload{sc: acc.Schema, a: acc.Access, inst: acc.Instance, q: workload.Q0(), next: st.Next}
	case "social":
		soc, err := workload.GenerateSocial(workload.SocialConfig{
			People: 60, MaxFriends: 8, MaxLikes: 4, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := workload.NewSocialStream(soc, workload.SocialStreamConfig{
			InsertPeople: 3, DeletePeople: 1, MaxFriends: 8, MaxLikes: 4, People: 60, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return &crashWorkload{sc: soc.Schema, a: soc.Access, inst: soc.Instance,
			q: workload.GraphSearchQuery(1, "NYC", "cycling"), next: st.Next}
	default:
		t.Fatalf("unknown crash workload %q", kind)
		return nil
	}
}

// newCrashEngine builds the durable engine under test: a fleet of shards
// in-process partitions (one partition is the single-node deployment).
func newCrashEngine(t testing.TB, w *crashWorkload, shards int) *shard.Engine {
	t.Helper()
	eng, err := shard.New(w.sc, w.a, shard.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// renderQuery materializes q deterministically: the recovered engine and
// the reference engine must produce these bytes identically.
func renderQuery(t testing.TB, eng core.Queryable, q *cq.CQ) string {
	t.Helper()
	res, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, "\t"))
	b.WriteByte('\n')
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		b.WriteString(strings.Join(cells, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCrashHelper is the child: it only runs when the crash env vars are
// set (the parent re-execs the test binary with -test.run pinned here).
// It loads the scenario, applies crashDeltas deltas with a checkpoint
// after the second, and lets the injected hook kill the process at the
// configured point. Exiting normally means the point fired fewer than
// Nth times — also a valid outcome the parent verifies against.
func TestCrashHelper(t *testing.T) {
	point := os.Getenv("BE_CRASH_POINT")
	if point == "" {
		t.Skip("crash helper: driven by TestCrashRecovery")
	}
	dir := os.Getenv("BE_CRASH_DIR")
	nth, err := strconv.Atoi(os.Getenv("BE_CRASH_NTH"))
	if err != nil {
		t.Fatal(err)
	}
	shards, err := strconv.Atoi(os.Getenv("BE_CRASH_SHARDS"))
	if err != nil {
		t.Fatal(err)
	}
	w := crashLoad(t, os.Getenv("BE_CRASH_KIND"))
	eng := newCrashEngine(t, w, shards)
	// The hook can fire from concurrent per-shard goroutines; count
	// atomically so exactly the Nth matching firing kills the process.
	var n atomic.Int64
	ctx := context.Background()
	if _, err := eng.Durable(ctx, dir, func(p string) {
		if p == point && int(n.Add(1)) == nth {
			os.Exit(3)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(w.inst); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= crashDeltas; i++ {
		if _, err := eng.Apply(ctx, w.next()); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			if _, err := eng.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// runCrashChild re-execs the test binary as the crash child and returns
// its exit code: 3 means the injected kill struck, 0 means the script
// completed before the point fired Nth times.
func runCrashChild(t *testing.T, point string, nth int, dir, kind string, shards int) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashHelper$")
	cmd.Env = append(os.Environ(),
		"BE_CRASH_POINT="+point,
		"BE_CRASH_NTH="+strconv.Itoa(nth),
		"BE_CRASH_DIR="+dir,
		"BE_CRASH_KIND="+kind,
		"BE_CRASH_SHARDS="+strconv.Itoa(shards),
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("re-exec failed: %v\n%s", err, out)
	}
	code := ee.ExitCode()
	if code != 3 {
		t.Fatalf("child at point %s (nth=%d) failed with code %d (want a clean exit or the injected 3):\n%s",
			point, nth, code, out)
	}
	return code
}

// verifyRecovered recovers a fresh engine from the child's directory and
// checks the crash-consistency contract against an in-memory reference.
func verifyRecovered(t *testing.T, dir, kind string, shards, code int) {
	t.Helper()
	ctx := context.Background()
	w := crashLoad(t, kind)
	eng := newCrashEngine(t, w, shards)
	restored, err := eng.Durable(ctx, dir, nil)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer eng.CloseDurable()
	if !restored {
		// Only a crash that struck during the initial Load checkpoint —
		// before anything was committed — may leave nothing to recover.
		if code != 3 {
			t.Error("completed child left no recoverable state")
		}
		return
	}
	v := eng.Stats().Version
	if v > crashDeltas {
		t.Fatalf("recovered version %d past the %d applied deltas", v, crashDeltas)
	}
	// Reference: a never-crashed in-memory engine replayed to version v.
	rw := crashLoad(t, kind)
	ref, err := core.New(rw.sc, rw.a, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Load(rw.inst); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < v; i++ {
		if _, err := ref.Apply(ctx, rw.next()); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := eng.Stats().Size, ref.Stats().Size; got != want {
		t.Errorf("recovered size %d, reference %d at version %d", got, want, v)
	}
	if got, want := renderQuery(t, eng, w.q), renderQuery(t, ref, rw.q); got != want {
		t.Errorf("recovered query output diverges from the reference at version %d:\n--- recovered ---\n%s--- reference ---\n%s", v, got, want)
	}
	// Life goes on: the recovered engine must accept the NEXT delta of
	// the stream (version continuity across the crash) and stay aligned.
	next := rw.next()
	if _, err := eng.Apply(ctx, next); err != nil {
		t.Fatalf("recovered engine rejected the next delta: %v", err)
	}
	if _, err := ref.Apply(ctx, next); err != nil {
		t.Fatal(err)
	}
	if got, want := renderQuery(t, eng, w.q), renderQuery(t, ref, rw.q); got != want {
		t.Errorf("post-recovery apply diverges at version %d", v+1)
	}
}

// TestCrashRecovery is the matrix driver: every injection point in
// durable.Points, over both demo schemas, on one partition and on four.
// WAL points additionally get a later firing (nth=3) so the kill lands
// mid-stream rather than on the first apply.
func TestCrashRecovery(t *testing.T) {
	if os.Getenv("BE_CRASH_POINT") != "" {
		t.Skip("crash child must not recurse")
	}
	if testing.Short() {
		t.Skip("crash matrix re-execs the test binary ~30 times")
	}
	for _, kind := range []string{"accidents", "social"} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/k%d", kind, shards), func(t *testing.T) {
				t.Parallel()
				for _, point := range durable.Points {
					nths := []int{1}
					if point == durable.PointWALWritten || point == durable.PointWALSynced {
						nths = []int{1, 3}
					}
					for _, nth := range nths {
						dir := t.TempDir()
						code := runCrashChild(t, point, nth, dir, kind, shards)
						if nth == 1 && code != 3 {
							t.Errorf("point %s never fired in the child", point)
						}
						verifyRecovered(t, dir, kind, shards, code)
					}
				}
			})
		}
	}
}
