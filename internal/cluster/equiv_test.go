package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/live"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/ucq"
	"repro/internal/value"
	"repro/internal/workload"
)

// The equivalence suite of the ONE coordinator (shard.Engine), run over
// every kind of fleet it can be built on: all partitions in-process,
// all behind HTTP, and a mixed fleet of both (which no constructor
// builds — the coordinator only sees shard.Partition, so it comes for
// free). Every kind is held to the same oracle: a single-node
// core.Engine on the same data.

func iv(i int64) value.Value  { return value.NewInt(i) }
func sv(s string) value.Value { return value.NewString(s) }

// testbed is one workload the suite runs: a schema, its access schema,
// a fresh-instance factory, a random-CQ const pool and hand-written
// queries the generator rarely draws.
type testbed struct {
	name   string
	schema *schema.Schema
	access *access.Schema
	build  func() *data.Instance
	consts map[schema.Attribute][]cq.Term
	extra  []*cq.CQ
}

func accidentsBed(t *testing.T) testbed {
	t.Helper()
	build := func() *data.Instance {
		acc, err := workload.GenerateAccidents(workload.AccidentConfig{
			Days: 3, AccidentsPerDay: 15, MaxVehicles: 4, Seed: 21,
		})
		if err != nil {
			t.Fatal(err)
		}
		return acc.Instance
	}
	// Q0 on each day, whose aid step routes by the date its rows carry,
	// and aid 3 asked under each day's date, which must not route: the
	// row's date is the query's constant, not aid 3's own.
	var extra []*cq.CQ
	for day := 0; day < 3; day++ {
		date := cq.Const(sv(workload.DateName(day)))
		q0 := workload.Q0()
		q0.Label = fmt.Sprintf("Q0_day%d", day)
		q0.Atoms[0].Args[2] = date
		extra = append(extra, q0, &cq.CQ{Label: fmt.Sprintf("aid3_day%d", day), Free: []string{"d"},
			Atoms: []cq.Atom{cq.NewAtom("Accident", cq.Const(iv(3)), cq.Var("d"), date)}})
	}
	return testbed{
		name:   "accidents",
		schema: workload.AccidentSchema(),
		access: workload.AccidentConstraints(),
		build:  build,
		consts: map[schema.Attribute][]cq.Term{
			"date":     {cq.Const(sv(workload.DateName(0))), cq.Const(sv(workload.DateName(1)))},
			"district": {cq.Const(sv(workload.Districts[0])), cq.Const(sv(workload.Districts[2]))},
			"aid":      {cq.Const(iv(3))},
			"vid":      {cq.Const(iv(5))},
		},
		extra: extra,
	}
}

func socialBed(t *testing.T) testbed {
	t.Helper()
	build := func() *data.Instance {
		soc, err := workload.GenerateSocial(workload.SocialConfig{
			People: 300, MaxFriends: 12, MaxLikes: 5, Seed: 22,
		})
		if err != nil {
			t.Fatal(err)
		}
		return soc.Instance
	}
	return testbed{
		name:   "social",
		schema: workload.SocialSchema(),
		access: workload.SocialConstraints(12, 5),
		build:  build,
		consts: map[schema.Attribute][]cq.Term{
			"pid":   {cq.Const(iv(1)), cq.Const(iv(7))},
			"city":  {cq.Const(sv(workload.Cities[0]))},
			"topic": {cq.Const(sv(workload.Topics[0]))},
		},
	}
}

// randomBed is a two-relation schema with a general-form (sqrt)
// constraint, so the suite also exercises size-dependent bounds — the
// case where the coordinator's global size, not any one partition's,
// must feed the bound.
func randomBed(t *testing.T) testbed {
	t.Helper()
	s := schema.MustNew(
		schema.MustRelation("R", "a", "b"),
		schema.MustRelation("S", "b", "c"),
	)
	a := access.NewSchema(
		access.Constraint{Rel: "R", X: []schema.Attribute{"a"}, Y: []schema.Attribute{"b"}, Card: access.SqrtCard()},
		access.NewConstraint("S", []schema.Attribute{"b"}, []schema.Attribute{"c"}, 3),
	)
	build := func() *data.Instance {
		d := data.NewInstance(s)
		for i := 0; i < 200; i++ {
			d.MustInsert("R", iv(int64(i%40)), iv(int64(i)))
			d.MustInsert("S", iv(int64(i)), iv(int64(i%7)))
		}
		return d
	}
	return testbed{
		name:   "random",
		schema: s,
		access: a,
		build:  build,
		consts: map[schema.Attribute][]cq.Term{
			"a": {cq.Const(iv(1)), cq.Const(iv(2))},
			"b": {cq.Const(iv(10))},
		},
	}
}

// queries generates the random CQ workload plus UCQs paired from
// same-arity CQs, then appends the testbed's extra CQs.
func (tb testbed) queries(t *testing.T, n int) ([]*cq.CQ, []*ucq.UCQ) {
	t.Helper()
	qs, err := workload.RandomCQs(tb.schema, workload.RandomCQConfig{
		Queries: n, MaxAtoms: 3, StartProb: 0.8, FreeVars: 2, Seed: 17,
	}, tb.consts)
	if err != nil {
		t.Fatal(err)
	}
	byArity := map[int][]*cq.CQ{}
	for _, q := range qs {
		byArity[len(q.Free)] = append(byArity[len(q.Free)], q)
	}
	var unions []*ucq.UCQ
	for arity, group := range byArity {
		if arity == 0 {
			continue
		}
		for i := 0; i+1 < len(group); i += 2 {
			u, err := ucq.New(fmt.Sprintf("u%d_%d", arity, i), group[i], group[i+1])
			if err != nil {
				t.Fatal(err)
			}
			unions = append(unions, u)
		}
	}
	return append(qs, tb.extra...), unions
}

// single builds the loaded single-node oracle.
func (tb testbed) single(t *testing.T) *core.Engine {
	t.Helper()
	single, err := core.New(tb.schema, tb.access, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Load(tb.build()); err != nil {
		t.Fatal(err)
	}
	return single
}

// testOptions are coordinator options tuned for tests: short timeouts
// and fast retry/cooldown schedules.
func testOptions(t testing.TB) Options {
	t.Helper()
	return Options{
		RPCTimeout: 5 * time.Second,
		Retries:    2,
		Backoff:    time.Millisecond,
		Cooldown:   50 * time.Millisecond,
	}
}

// startCluster builds K shard nodes, each behind its own httptest
// server serving the framed wire, and a coordinator over them.
// The returned nodes allow tests to inspect per-shard state (versions,
// sizes) that a real deployment would read via /status.
func startCluster(t testing.TB, tb testbed, k int, opts Options) (*Engine, []*Node, []string) {
	t.Helper()
	nodes := make([]*Node, k)
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		node, err := NewNode(tb.schema, tb.access, i, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(node.InternalHandler())
		t.Cleanup(ts.Close)
		nodes[i] = node
		urls[i] = ts.URL
	}
	coord, err := New(tb.schema, tb.access, urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closePeers(coord.peers...) })
	return coord, nodes, urls
}

// testPeer is a peer client of node i at url whose idle connections the
// test's cleanup closes, so that the node's serve loops end with it.
func testPeer(t testing.TB, i int, url string, tb testbed, opts Options) *peerClient {
	t.Helper()
	p, err := newPeerClient(i, url, tb.schema, tb.access, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.closeIdle)
	return p
}

// closePeers closes the idle connections of peers: the coordinator side
// of a fleet's teardown.
func closePeers(peers ...*peerClient) {
	for _, p := range peers {
		p.closeIdle()
	}
}

// fleetKinds are the partition kinds every property runs over: "http"
// puts every partition behind a node's framed wire, and "mixed" puts the
// odd ones there and keeps the even ones local.
var fleetKinds = []string{"local", "http", "mixed"}

// fleet is one coordinator under test plus its partitions, for the
// properties that look beneath the coordinator (lockstep versions, a
// second coordinator attaching).
type fleet struct {
	eng   *shard.Engine
	parts []shard.Partition
}

// newFleet builds an unloaded K-partition fleet of the given kind.
func newFleet(t *testing.T, tb testbed, kind string, k int) *fleet {
	t.Helper()
	f := &fleet{parts: make([]shard.Partition, k)}
	if kind == "http" {
		coord, _, _ := startCluster(t, tb, k, testOptions(t))
		for i, p := range coord.peers {
			f.parts[i] = p
		}
		f.eng = coord.Engine
		return f
	}
	for i := range f.parts {
		if kind == "mixed" && i%2 == 1 {
			node, err := NewNode(tb.schema, tb.access, i, k, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(node.InternalHandler())
			t.Cleanup(ts.Close)
			f.parts[i] = testPeer(t, i, ts.URL, tb, testOptions(t))
			continue
		}
		l, err := shard.NewLocal(tb.schema, tb.access, i, k)
		if err != nil {
			t.Fatal(err)
		}
		f.parts[i] = l
	}
	eng, err := shard.NewCoordinator(tb.schema, tb.access, f.parts)
	if err != nil {
		t.Fatal(err)
	}
	f.eng = eng
	return f
}

// loadedFleet is newFleet plus Load of the testbed's instance.
func loadedFleet(t *testing.T, tb testbed, kind string, k int) *fleet {
	t.Helper()
	f := newFleet(t, tb, kind, k)
	if err := f.eng.Load(tb.build()); err != nil {
		t.Fatal(err)
	}
	return f
}

// eachFleet runs fn once per fleet kind and partition count, skipping
// the one combination that is not its own kind (a 1-partition mixed
// fleet is the local one).
func eachFleet(t *testing.T, ks []int, fn func(t *testing.T, kind string, k int)) {
	for _, kind := range fleetKinds {
		for _, k := range ks {
			if kind == "mixed" && k == 1 {
				continue
			}
			t.Run(fmt.Sprintf("%s/K=%d", kind, k), func(t *testing.T) { fn(t, kind, k) })
		}
	}
}

// checkEquivalent queries both engines and demands identical outcomes:
// same error presence, same serving mode, same rows in the same order,
// and the same Fetched, FetchKeys and Scanned.
func checkEquivalent(t *testing.T, label string, single *core.Engine, got core.Queryable, q core.Query, opts ...core.QueryOption) {
	t.Helper()
	want, errW := single.Query(context.Background(), q, opts...)
	have, errG := got.Query(context.Background(), q, opts...)
	if (errW == nil) != (errG == nil) {
		t.Fatalf("%s: error divergence: single=%v fleet=%v", label, errW, errG)
	}
	if errW != nil {
		return
	}
	if want.Mode != have.Mode {
		t.Fatalf("%s: mode %v vs %v", label, have.Mode, want.Mode)
	}
	if len(want.Rows) != len(have.Rows) {
		t.Fatalf("%s: %d rows vs %d", label, len(have.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if want.Rows[i].Key() != have.Rows[i].Key() {
			t.Fatalf("%s: row %d: %v vs %v", label, i, have.Rows[i], want.Rows[i])
		}
	}
	// The fleet reads exactly what the single engine reads: routing a
	// step to fewer partitions must never lose or double a tuple.
	ws, hs := want.Stats, have.Stats
	if ws.Fetched != hs.Fetched || ws.FetchKeys != hs.FetchKeys || ws.Scanned != hs.Scanned {
		t.Fatalf("%s: fetched/keys/scanned %d/%d/%d vs %d/%d/%d", label,
			hs.Fetched, hs.FetchKeys, hs.Scanned, ws.Fetched, ws.FetchKeys, ws.Scanned)
	}
}

// TestPropertyFleetEqualsSingleNode is the acceptance property: for
// K ∈ {1, 2, 4} and every fleet kind, the coordinator answers every
// random CQ and UCQ — bounded or scan-fallback — with exactly the rows,
// order and mode of a single-node engine on the same data.
func TestPropertyFleetEqualsSingleNode(t *testing.T) {
	for _, tb := range []testbed{accidentsBed(t), socialBed(t), randomBed(t)} {
		qs, unions := tb.queries(t, 40)
		single := tb.single(t)
		eachFleet(t, []int{1, 2, 4}, func(t *testing.T, kind string, k int) {
			f := loadedFleet(t, tb, kind, k)
			for i, q := range qs {
				checkEquivalent(t, fmt.Sprintf("%s cq%d", tb.name, i), single, f.eng, q)
			}
			for i, u := range unions {
				checkEquivalent(t, fmt.Sprintf("%s ucq%d", tb.name, i), single, f.eng, u)
			}
		})
	}
}

// corruptAccidents occasionally corrupts a constraint-preserving
// accidents batch so the verdict comparison sees real rejections too:
// re-inserting aid 3 under a different district/date breaks the aid key
// constraint, and the two tuples usually land on different partitions
// (Accident partitions by date) — forcing cross-partition validation.
func corruptAccidents(d *live.Delta, step int) *live.Delta {
	if step%4 != 3 {
		return d
	}
	d.MustInsert("Accident", iv(3), sv("Nowhere"), sv(fmt.Sprintf("%d/1/1970", step%28+1)))
	return d
}

// applyBoth drives one delta through the oracle and the fleet and
// demands identical accept/reject verdicts, identical violation lists,
// identical sizes, and every partition at the coordinator's version —
// moved, or refused, in lockstep: no torn commits.
func applyBoth(t *testing.T, label string, single *core.Engine, f *fleet, delta *live.Delta) {
	t.Helper()
	_, errS := single.Apply(context.Background(), delta)
	_, errF := f.eng.Apply(context.Background(), delta)
	if (errS == nil) != (errF == nil) {
		t.Fatalf("%s: verdicts diverge: single=%v fleet=%v", label, errS, errF)
	}
	if errS != nil {
		var vs, vf *live.ViolationError
		if !errors.As(errS, &vs) || !errors.As(errF, &vf) {
			t.Fatalf("%s: non-violation apply errors: %v / %v", label, errS, errF)
		}
		if fmt.Sprint(vs.Violations) != fmt.Sprint(vf.Violations) {
			t.Fatalf("%s: violations differ:\n  single: %v\n  fleet:  %v", label, vs.Violations, vf.Violations)
		}
	}
	if single.Stats().Size != f.eng.Stats().Size {
		t.Fatalf("%s: sizes diverge %d vs %d", label, single.Stats().Size, f.eng.Stats().Size)
	}
	wantV := f.eng.Stats().Version
	for i, p := range f.parts {
		st, err := p.Status(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Version != wantV {
			t.Fatalf("%s: partition %d at version %d, coordinator at %d", label, i, st.Version, wantV)
		}
	}
}

// TestPropertyFleetApplyVerdictsMatch drives a single-node engine and
// each fleet through the same delta stream — with periodic corrupted
// batches — and spot-checks query results after every batch. This is
// the two-phase Apply end to end: stage fan-out, global validation,
// commit or abort.
func TestPropertyFleetApplyVerdictsMatch(t *testing.T) {
	tb := accidentsBed(t)
	eachFleet(t, []int{2, 4}, func(t *testing.T, kind string, k int) {
		single, f := tb.single(t), loadedFleet(t, tb, kind, k)
		acc, err := workload.GenerateAccidents(workload.AccidentConfig{
			Days: 3, AccidentsPerDay: 15, MaxVehicles: 4, Seed: 21,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := workload.NewAccidentStream(acc, workload.AccidentStreamConfig{
			InsertAccidents: 4, DeleteAccidents: 2, Seed: 31,
		})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 16; step++ {
			label := fmt.Sprintf("step %d", step)
			applyBoth(t, label, single, f, corruptAccidents(st.Next(), step))
			checkEquivalent(t, label+" Q0", single, f.eng, workload.Q0())
		}
	})
}

// TestPropertyFleetGeneralFormVerdictsMatch is the same property on
// size-dependent bounds: R carries a sqrt constraint aligned with its
// partition key (a → b) and one that is not (b → a), each with one
// dense group, and the stream grows the groups to and past s(|D|) and
// shrinks |D| under them — so the verdict needs the global size, the
// shrink recheck of partitions the delta never touched (MaxGroup), and
// the cross-partition union of a straddling group (Groups).
func TestPropertyFleetGeneralFormVerdictsMatch(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R", "a", "b"))
	a := access.NewSchema(
		access.Constraint{Rel: "R", X: []schema.Attribute{"a"}, Y: []schema.Attribute{"b"}, Card: access.SqrtCard()},
		access.Constraint{Rel: "R", X: []schema.Attribute{"b"}, Y: []schema.Attribute{"a"}, Card: access.SqrtCard()},
	)
	tb := testbed{name: "sqrt", schema: s, access: a, build: func() *data.Instance {
		d := data.NewInstance(s)
		for i := int64(0); i < 9; i++ {
			d.MustInsert("R", iv(0), iv(i))        // a = 0: 9 b-values on one partition
			d.MustInsert("R", iv(200+i), iv(5000)) // b = 5000: 9 a-values across partitions
		}
		for i := int64(1); i <= 91; i++ {
			d.MustInsert("R", iv(i), iv(1000+i)) // singletons: |D| = 109, bound 11
		}
		return d
	}}
	delta := func(ins, del [][2]int64) *live.Delta {
		d := live.NewDelta(s)
		for _, t := range ins {
			d.MustInsert("R", iv(t[0]), iv(t[1]))
		}
		for _, t := range del {
			d.MustDelete("R", iv(t[0]), iv(t[1]))
		}
		return d
	}
	var singles [][2]int64
	for i := int64(1); i <= 60; i++ {
		singles = append(singles, [2]int64{i, 1000 + i})
	}
	stream := []*live.Delta{
		delta([][2]int64{{0, 100}, {300, 5000}}, nil),                            // both groups to 10 ≤ 11
		delta(nil, singles),                                                      // |D| 111 → 51, bound 8 < 10: both refuse, untouched
		delta([][2]int64{{0, 101}, {0, 102}}, nil),                               // aligned group to 12 > 11
		delta([][2]int64{{301, 5000}, {302, 5000}}, nil),                         // straddling group to 12 > 11
		delta([][2]int64{{0, 101}, {301, 5000}}, singles[:3]),                    // both to 11, |D| 110: bound 11 holds
		delta(nil, singles[3:20]),                                                // |D| 93, bound 10 < 11: refuse
		delta([][2]int64{{400, 1}, {401, 2}}, [][2]int64{{0, 101}, {301, 5000}}), // back to 10, accepted
	}
	eachFleet(t, []int{2, 4}, func(t *testing.T, kind string, k int) {
		single, f := tb.single(t), loadedFleet(t, tb, kind, k)
		refused := 0
		for step, d := range stream {
			before := f.eng.Stats().Version
			applyBoth(t, fmt.Sprintf("step %d", step), single, f, d)
			if f.eng.Stats().Version == before {
				refused++
			}
		}
		if refused != 4 {
			t.Fatalf("stream refused %d deltas, want 4 (the bounds were not exercised)", refused)
		}
	})
}

// TestPropertyEquivalenceUnderConcurrentWrites runs readers against
// each fleet WHILE a writer applies a deterministic delta stream (race
// coverage: coordinator snapshot swaps vs scatter-gather reads), then
// replays the same stream on a single-node engine and demands the final
// states answer the whole workload identically. A reader may be refused
// only over the wire, and only with stale_version: its pinned version
// aged out of a node's ring under the write storm. A local view is held
// by the reader itself and can never go stale.
func TestPropertyEquivalenceUnderConcurrentWrites(t *testing.T) {
	tb := socialBed(t)
	qs, unions := tb.queries(t, 20)
	soc, err := workload.GenerateSocial(workload.SocialConfig{
		People: 300, MaxFriends: 12, MaxLikes: 5, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := workload.NewSocialStream(soc, workload.SocialStreamConfig{
		InsertPeople: 5, DeletePeople: 2, MaxFriends: 12, MaxLikes: 5, People: 300, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	deltas := make([]*live.Delta, 20)
	for i := range deltas {
		deltas[i] = st.Next()
	}
	single := tb.single(t)
	for _, d := range deltas {
		if _, err := single.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}

	eachFleet(t, []int{4}, func(t *testing.T, kind string, k int) {
		f := loadedFleet(t, tb, kind, k)
		tolerable := func(err error) bool {
			var coded interface{ ErrorCode() string }
			return kind != "local" && errors.As(err, &coded) && coded.ErrorCode() == "stale_version"
		}
		var wg sync.WaitGroup
		var writerDone atomic.Bool
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer writerDone.Store(true)
			for _, d := range deltas {
				if _, err := f.eng.Apply(context.Background(), d); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for !writerDone.Load() {
					q := qs[r%len(qs)]
					if _, err := f.eng.Query(context.Background(), q); err != nil && !tolerable(err) {
						t.Errorf("reader: %v", err)
						return
					}
					// Streams pin their snapshot even when drained after
					// later applies.
					res, err := f.eng.Query(context.Background(), q, core.WithStream())
					if err != nil {
						if tolerable(err) {
							continue
						}
						t.Errorf("reader: %v", err)
						return
					}
					for range res.Seq() {
					}
					if err := res.Err(); err != nil && !tolerable(err) {
						t.Errorf("reader stream: %v", err)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		for i, q := range qs {
			checkEquivalent(t, fmt.Sprintf("post-stream cq%d", i), single, f.eng, q)
		}
		for i, u := range unions {
			checkEquivalent(t, fmt.Sprintf("post-stream ucq%d", i), single, f.eng, u)
		}
	})
}

// TestFleetAttachAdoptsFleet verifies the restart path: a second
// coordinator attaching to an already-loaded (and written-to) fleet
// adopts its version and size and answers queries identically to the
// coordinator that loaded the data — no reload required.
func TestFleetAttachAdoptsFleet(t *testing.T) {
	tb := accidentsBed(t)
	eachFleet(t, []int{2}, func(t *testing.T, kind string, k int) {
		single, f := tb.single(t), loadedFleet(t, tb, kind, k)
		grow := live.NewDelta(tb.schema)
		grow.MustInsert("Accident", iv(900001), sv("Nowhere"), sv("9/9/1999"))
		applyBoth(t, "grow", single, f, grow)

		second, err := shard.NewCoordinator(tb.schema, tb.access, f.parts)
		if err != nil {
			t.Fatal(err)
		}
		if err := second.Attach(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got, want := second.Stats(), f.eng.Stats(); got.Size != want.Size || got.Version != want.Version {
			t.Fatalf("attached at size %d version %d, want %d / %d", got.Size, got.Version, want.Size, want.Version)
		}
		checkEquivalent(t, "attached Q0", single, second, workload.Q0())
	})
}

// TestAttachRollsBackPartitionRestartedAheadOfCut is the coordinator
// dying mid-commit-fanout with the fleet restarting before anyone
// repairs it: partition 0 committed (and fsynced) version 2 alone, so
// after the restart it holds only version 2 while the fleet's cut is
// version 1. Attach must rebuild version 1 from partition 0's durable
// store and truncate the orphaned record — for a local fleet and over
// the wire alike — then serve exactly the single-node answers at
// version 1 and accept the next write at version 2.
//
// Checkpoints race that window too. The coordinator's Checkpoint must
// persist the version it published (1), not partition 0's newest; and
// the orphan checkpoint partition 0 takes of its own version 2 must go
// with the rollback — left on disk, the NEXT restart would recover it
// in place of the real version 2: the rolled-back row back, the
// acknowledged one gone, the size unchanged.
func TestAttachRollsBackPartitionRestartedAheadOfCut(t *testing.T) {
	tb := accidentsBed(t)
	ctx := context.Background()
	probe := &cq.CQ{Label: "probe", Free: []string{"aid"}, Atoms: []cq.Atom{
		cq.NewAtom("Accident", cq.Var("aid"), cq.Var("district"), cq.Const(sv("9/9/1999")))}}
	insert := func(aid int64) *live.Delta {
		d := live.NewDelta(tb.schema)
		d.MustInsert("Accident", iv(aid), sv("Nowhere"), sv("9/9/1999"))
		return d
	}
	for _, kind := range []string{"local", "http"} {
		t.Run(kind, func(t *testing.T) {
			const k = 2
			dirs := []string{t.TempDir(), t.TempDir()}
			// boot starts both partitions over their directories and a
			// fresh coordinator over them; stop is the whole fleet dying.
			var nodes [k]*Node
			boot := func() (f *fleet, restored int, stop func()) {
				f = &fleet{parts: make([]shard.Partition, k)}
				var stops []func()
				for i := range f.parts {
					node, err := NewNode(tb.schema, tb.access, i, k, Options{})
					if err != nil {
						t.Fatal(err)
					}
					nodes[i] = node
					ok, err := node.Durable(ctx, dirs[i], nil)
					if err != nil {
						t.Fatal(err)
					}
					if ok {
						restored++
					}
					stops = append(stops, func() { node.CloseDurable() })
					f.parts[i] = node.part
					if kind == "http" {
						ts := httptest.NewServer(node.InternalHandler())
						stops = append(stops, ts.Close)
						f.parts[i] = testPeer(t, i, ts.URL, tb, testOptions(t))
					}
				}
				eng, err := shard.NewCoordinator(tb.schema, tb.access, f.parts)
				if err != nil {
					t.Fatal(err)
				}
				f.eng = eng
				return f, restored, func() {
					for _, s := range stops {
						s()
					}
				}
			}

			single := tb.single(t)
			f, _, stop := boot()
			if err := f.eng.Load(tb.build()); err != nil {
				t.Fatal(err)
			}
			applyBoth(t, "v1", single, f, insert(900001))
			// The dying coordinator's last write reaches partition 0 only.
			if _, err := f.parts[0].Stage(ctx, "txn-orphan", 1, insert(900002)); err != nil {
				t.Fatal(err)
			}
			if _, err := f.parts[0].Commit(ctx, "txn-orphan", 1); err != nil {
				t.Fatal(err)
			}
			orphan := filepath.Join(dirs[0], fmt.Sprintf("checkpoint-%016x.ckpt", 2))
			onDisk := func() bool { _, err := os.Stat(orphan); return err == nil }
			if v, err := f.eng.Checkpoint(ctx); err != nil || v != 1 || onDisk() {
				t.Fatalf("coordinator checkpoint = version %d, %v; unpublished version 2 on disk: %v", v, err, onDisk())
			}
			if v, err := nodes[0].Checkpoint(ctx); err != nil || v != 2 || !onDisk() {
				t.Fatalf("partition 0's own checkpoint = version %d, %v; on disk: %v", v, err, onDisk())
			}
			stop()

			f, restored, stop := boot()
			if restored != k {
				t.Fatalf("%d of %d partitions recovered durable state", restored, k)
			}
			if st, _ := f.parts[0].Status(ctx); st.Version != 2 {
				t.Fatalf("partition 0 restarted at version %d, want 2 (ahead of the cut)", st.Version)
			}
			if err := f.eng.Attach(ctx); err != nil {
				t.Fatalf("attach to a fleet with a partition ahead of the cut: %v", err)
			}
			if v := f.eng.Stats().Version; v != 1 {
				t.Fatalf("attached at version %d, want the cut 1", v)
			}
			checkEquivalent(t, "probe at the cut", single, f.eng, probe)
			checkEquivalent(t, "Q0 at the cut", single, f.eng, workload.Q0())
			if onDisk() {
				t.Fatal("the rolled-back version's checkpoint survived the rollback")
			}
			applyBoth(t, "v2 after repair", single, f, insert(900003))
			checkEquivalent(t, "probe after repair", single, f.eng, probe)
			stop()

			// The acknowledged version 2 is what the next restart serves.
			f, _, stop = boot()
			defer stop()
			if err := f.eng.Attach(ctx); err != nil {
				t.Fatal(err)
			}
			if v := f.eng.Stats().Version; v != 2 {
				t.Fatalf("re-attached at version %d, want 2", v)
			}
			// A reader pinned at the attached version outlives the commits
			// that follow, even one that reaches a partition for the first
			// time after them: a local view holds its snapshot, a remote one
			// is held by its node from the attach on.
			var pinned [k]shard.View
			for i, p := range f.parts {
				var err error
				if pinned[i], err = p.Pin(2); err != nil {
					t.Fatal(err)
				}
			}
			for aid := int64(900004); aid <= 900006; aid++ {
				applyBoth(t, "after the second restart", single, f, insert(aid))
			}
			for i, view := range pinned {
				if _, err := view.Indexed(ctx); err != nil {
					t.Fatalf("partition %d, reader pinned at the attached version, three commits later: %v", i, err)
				}
			}
			checkEquivalent(t, "probe after the second restart", single, f.eng, probe)
		})
	}
}
