package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/index"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/workload"
)

// chaosRT is a fault injector on the framed wire. A swappable rule
// inspects each call a coordinator sends — the peer and the method —
// and names the fault to inject:
//
//	""     pass through
//	"drop" fail the call at the transport (connection lost), unsent
//	"500"  answer a synthetic 500 error frame without reaching the peer
//	"cut"  send the call, then sever its answer mid-frame
//	"dup"  send the request frame TWICE (duplicate commit), discard the
//	       first answer and answer the second
//
// Faults are injected at the coordinator's client, so the suite proves
// the coordinator's failure handling — retries, circuit breaking,
// rollback repair, idempotency — not the test server's.
type chaosRT struct {
	mu   sync.Mutex
	rule func(peer int, m method) string
}

// setRule swaps the active fault rule; nil heals everything.
func (c *chaosRT) setRule(f func(peer int, m method) string) {
	c.mu.Lock()
	c.rule = f
	c.mu.Unlock()
}

// install routes every call of peers through the injector.
func (c *chaosRT) install(peers ...*peerClient) {
	for _, p := range peers {
		p.exchange = func(pc *peerConn, m method, body []byte) (int, []byte, error) {
			c.mu.Lock()
			rule := c.rule
			c.mu.Unlock()
			fault := ""
			if rule != nil {
				fault = rule(p.id, m)
			}
			switch fault {
			case "drop":
				return 0, nil, errChaosDrop
			case "500":
				return http.StatusInternalServerError, []byte("chaos"), nil
			case "dup":
				// A commit that is not idempotent-by-txn would double-apply
				// here.
				if _, _, err := pc.roundTrip(m, body); err != nil {
					return 0, nil, err
				}
			case "cut":
				if err := writeFrame(pc.w, uint64(m), body); err != nil {
					return 0, nil, err
				}
				return readAnswer(bufio.NewReader(io.LimitReader(pc.r, 64)))
			}
			return pc.roundTrip(m, body)
		}
	}
}

var errChaosDrop = errors.New("chaos: connection dropped")

// chaosCooldown is the breaker cooldown of the chaos suite's peers, so
// fault windows clear in milliseconds.
const chaosCooldown = 20 * time.Millisecond

// codedError extracts the stable error code of a structured refusal, or
// "" when err carries none (which the chaos suite treats as a failure:
// every degraded answer must be machine-matchable).
func codedError(err error) string {
	var coded interface{ ErrorCode() string }
	if errors.As(err, &coded) {
		return coded.ErrorCode()
	}
	return ""
}

// TestChaosPeerDownStructuredDegradation kills one peer's transport and
// demands structured degradation: every query either answers exactly
// the single-node rows (its keys routed to live peers) or refuses with
// a shard_unavailable coded error — never partial rows, never a bare
// internal error. Healing the peer restores full equivalence after the
// circuit's cooldown.
func TestChaosPeerDownStructuredDegradation(t *testing.T) {
	tb := accidentsBed(t)
	rt := &chaosRT{}
	coord, _, _ := startCluster(t, tb, 2, chaosCooldown)
	rt.install(coord.peers...)
	if err := coord.Load(tb.build()); err != nil {
		t.Fatal(err)
	}
	single, err := coreSingle(tb)
	if err != nil {
		t.Fatal(err)
	}
	qs, _ := tb.queries(t, 30)

	rt.setRule(func(peer int, _ method) string {
		if peer == 1 {
			return "drop"
		}
		return ""
	})

	refused := 0
	for i, q := range qs {
		want, errW := single.Query(context.Background(), q)
		got, errG := coord.Query(context.Background(), q)
		if errW != nil {
			continue // the oracle itself refuses (budget/unbounded); skip
		}
		if errG != nil {
			if code := codedError(errG); code != "shard_unavailable" {
				t.Fatalf("cq%d: degraded error is not structured: code=%q err=%v", i, code, errG)
			}
			var ue *UnavailableError
			if !errors.As(errG, &ue) || ue.Peer != 1 {
				t.Fatalf("cq%d: expected UnavailableError{Peer:1}, got %v", i, errG)
			}
			refused++
			continue
		}
		// The query never needed the dead peer: it must still be exact.
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("cq%d: degraded query answered %d rows, want %d (partial answer?)",
				i, len(got.Rows), len(want.Rows))
		}
		for r := range want.Rows {
			if want.Rows[r].Key() != got.Rows[r].Key() {
				t.Fatalf("cq%d row %d: %v vs %v", i, r, got.Rows[r], want.Rows[r])
			}
		}
	}
	if refused == 0 {
		t.Fatal("no query ever touched the dead peer; the fault was not exercised")
	}

	// Heal. After the circuit's cooldown the fleet serves exactly again.
	rt.setRule(nil)
	time.Sleep(30 * time.Millisecond)
	for i, q := range qs {
		checkEquivalent(t, fmt.Sprintf("healed cq%d", i), single, coord, q)
	}
}

// coreSingle builds the loaded single-node oracle for a testbed.
func coreSingle(tb testbed) (*core.Engine, error) {
	single, err := core.New(tb.schema, tb.access, core.Options{})
	if err != nil {
		return nil, err
	}
	if err := single.Load(tb.build()); err != nil {
		return nil, err
	}
	return single, nil
}

// TestChaosCommitFailureFailsWhole injects a persistent 500 on one
// peer's commit and demands the write fails WHOLE: every node (including
// those whose commit succeeded before the fault surfaced) is back at the
// pre-delta version, reads still serve the old snapshot, and after
// healing the same delta applies cleanly.
func TestChaosCommitFailureFailsWhole(t *testing.T) {
	tb := accidentsBed(t)
	rt := &chaosRT{}
	coord, _, urls := startCluster(t, tb, 2, chaosCooldown)
	rt.install(coord.peers...)
	if err := coord.Load(tb.build()); err != nil {
		t.Fatal(err)
	}
	single, err := coreSingle(tb)
	if err != nil {
		t.Fatal(err)
	}
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
	delta := st.Next()
	sizeBefore := coord.Stats().Size

	rt.setRule(func(peer int, m method) string {
		if peer == 1 && m == mCommit {
			return "500"
		}
		return ""
	})
	if _, err := coord.Apply(context.Background(), delta); err == nil {
		t.Fatal("Apply succeeded though one peer could not commit")
	} else if code := codedError(err); code != "shard_unavailable" {
		t.Fatalf("commit failure is not structured: code=%q err=%v", code, err)
	}

	// No half-commit: every node back at version 0, coordinator size
	// unchanged, pre-delta reads exact.
	for i, url := range urls {
		if _, v := nodeHealth(t, url); v != 0 {
			t.Fatalf("node %d at version %d after failed apply (torn commit)", i, v)
		}
	}
	if got := coord.Stats().Size; got != sizeBefore {
		t.Fatalf("size moved %d -> %d across a failed apply", sizeBefore, got)
	}
	checkEquivalent(t, "pre-delta read after failed apply", single, coord, workload.Q0())

	// Heal: the SAME delta now applies, and both engines agree.
	rt.setRule(nil)
	time.Sleep(30 * time.Millisecond)
	if _, err := coord.Apply(context.Background(), delta); err != nil {
		t.Fatalf("healed apply failed: %v", err)
	}
	if _, err := single.Apply(context.Background(), delta); err != nil {
		t.Fatal(err)
	}
	for i, url := range urls {
		if _, v := nodeHealth(t, url); v != 1 {
			t.Fatalf("node %d at version %d after healed apply, want 1", i, v)
		}
	}
	checkEquivalent(t, "post-delta read after healed apply", single, coord, workload.Q0())
}

// TestChaosDuplicateCommitIdempotent delivers every commit RPC twice
// and demands the transaction applies exactly once: versions advance by
// one per Apply and sizes track the single-node oracle.
func TestChaosDuplicateCommitIdempotent(t *testing.T) {
	tb := accidentsBed(t)
	rt := &chaosRT{}
	coord, _, urls := startCluster(t, tb, 2, chaosCooldown)
	rt.install(coord.peers...)
	if err := coord.Load(tb.build()); err != nil {
		t.Fatal(err)
	}
	single, err := coreSingle(tb)
	if err != nil {
		t.Fatal(err)
	}
	rt.setRule(func(_ int, m method) string {
		if m == mCommit {
			return "dup"
		}
		return ""
	})
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
	for step := 1; step <= 4; step++ {
		delta := st.Next()
		if _, err := coord.Apply(context.Background(), delta); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if _, err := single.Apply(context.Background(), delta); err != nil {
			t.Fatal(err)
		}
		for i, url := range urls {
			if _, v := nodeHealth(t, url); v != uint64(step) {
				t.Fatalf("step %d: node %d at version %d (duplicate commit double-applied?)", step, i, v)
			}
		}
		if coord.Stats().Size != single.Stats().Size {
			t.Fatalf("step %d: sizes diverge %d vs %d", step, coord.Stats().Size, single.Stats().Size)
		}
		checkEquivalent(t, fmt.Sprintf("dup step %d", step), single, coord, workload.Q0())
	}
}

// TestChaosCutDumpNoPartialState severs the bulk dump stream mid-body
// during a scan-fallback query and demands a structured failure with NO
// partial state left behind: the healed retry answers the full,
// single-node-exact result (a half-merged cache would not).
func TestChaosCutDumpNoPartialState(t *testing.T) {
	tb := randomBed(t)
	rt := &chaosRT{}
	coord, _, _ := startCluster(t, tb, 2, chaosCooldown)
	rt.install(coord.peers...)
	if err := coord.Load(tb.build()); err != nil {
		t.Fatal(err)
	}
	single, err := coreSingle(tb)
	if err != nil {
		t.Fatal(err)
	}
	// Q(b) :- R(a, b) with a unbound is not covered by R's a→b
	// constraint: the planner must fall back to a scan over the merged
	// instance, which the coordinator assembles by dumping every peer.
	scan := &cq.CQ{Label: "scanQ", Free: []string{"b"},
		Atoms: []cq.Atom{cq.NewAtom("R", cq.Var("a"), cq.Var("b"))}}

	// Advance past version 0 first: Load seeds the merged cache with the
	// loaded instance, and the cut must hit a REAL dump RPC.
	delta := live.NewDelta(tb.schema)
	delta.MustInsert("R", iv(1000), iv(1000))
	delta.MustInsert("S", iv(1000), iv(0))
	if _, err := coord.Apply(context.Background(), delta); err != nil {
		t.Fatal(err)
	}
	if _, err := single.Apply(context.Background(), delta); err != nil {
		t.Fatal(err)
	}

	rt.setRule(func(_ int, m method) string {
		if m == mDump {
			return "cut"
		}
		return ""
	})
	if _, err := coord.Query(context.Background(), scan); err == nil {
		t.Fatal("scan query succeeded over a severed dump stream")
	} else if code := codedError(err); code != "shard_unavailable" {
		t.Fatalf("cut stream error is not structured: code=%q err=%v", code, err)
	}

	rt.setRule(nil)
	time.Sleep(30 * time.Millisecond)
	checkEquivalent(t, "healed scan", single, coord, scan)
}

// TestChaosWireSoakExactlyOneSnapshot is the soak invariant over the
// wire: readers hammer a two-atom join through the coordinator WHILE a
// writer swaps the joined value version after version. Every read must
// observe exactly one consistent snapshot — exactly one row — or refuse
// with a structured stale_version (the reader's pinned version aged out
// of a node's history ring). Zero rows would be a torn cross-peer
// fetch; two rows a torn swap. Afterward the harness tears everything
// down and demands the goroutine count returns to baseline.
func TestChaosWireSoakExactlyOneSnapshot(t *testing.T) {
	s := schema.MustNew(
		schema.MustRelation("A", "k", "x"),
		schema.MustRelation("B", "k", "x"),
	)
	a := access.NewSchema(
		access.NewConstraint("A", []schema.Attribute{"k"}, []schema.Attribute{"x"}, 1),
		access.NewConstraint("B", []schema.Attribute{"k"}, []schema.Attribute{"x"}, 1),
	)
	before := runtime.NumGoroutine()

	const k = 2
	nodes := make([]*Node, k)
	servers := make([]*httptest.Server, k)
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		node, err := NewNode(s, a, i, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = httptest.NewServer(node.InternalHandler())
		nodes[i] = node
		urls[i] = servers[i].URL
	}
	coord, err := New(s, a, urls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fastRetry(chaosCooldown, coord.peers...)
	d := data.NewInstance(s)
	d.MustInsert("A", sv("w"), sv("v0"))
	d.MustInsert("B", sv("w"), sv("v0"))
	if err := coord.Load(d); err != nil {
		t.Fatal(err)
	}
	q := &cq.CQ{Label: "join", Free: []string{"x"}, Atoms: []cq.Atom{
		cq.NewAtom("A", cq.Const(sv("w")), cq.Var("x")),
		cq.NewAtom("B", cq.Const(sv("w")), cq.Var("x")),
	}}

	const versions = 40
	var wg sync.WaitGroup
	var writerDone atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		for i := 0; i < versions; i++ {
			delta := live.NewDelta(s)
			delta.MustDelete("A", sv("w"), sv(fmt.Sprintf("v%d", i)))
			delta.MustInsert("A", sv("w"), sv(fmt.Sprintf("v%d", i+1)))
			delta.MustDelete("B", sv("w"), sv(fmt.Sprintf("v%d", i)))
			delta.MustInsert("B", sv("w"), sv(fmt.Sprintf("v%d", i+1)))
			if _, err := coord.Apply(context.Background(), delta); err != nil {
				t.Errorf("writer version %d: %v", i+1, err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !writerDone.Load() {
				res, err := coord.Query(context.Background(), q)
				if err != nil {
					// The only acceptable refusal: the pinned version aged
					// out of a node's history ring under the write storm.
					if code := codedError(err); code != "stale_version" {
						t.Errorf("reader %d: unstructured error: %v", r, err)
						return
					}
					// The node's message crosses the wire bare and is framed
					// once, by the client that names the shard.
					if msg := err.Error(); strings.Count(msg, "(stale_version)") != 1 || strings.Count(msg, "partition ") != 1 {
						t.Errorf("reader %d: refusal framed more than once: %v", r, err)
						return
					}
					continue
				}
				if len(res.Rows) != 1 {
					t.Errorf("reader %d: %d rows (0 = torn cross-peer fetch, 2 = torn swap): %v",
						r, len(res.Rows), res.Rows)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	res, err := coord.Query(context.Background(), q)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("final read: rows=%v err=%v", res, err)
	}
	if got := string(res.Rows[0].Key()); !strings.Contains(got, fmt.Sprintf("v%d", versions)) {
		t.Fatalf("final row %q does not carry v%d", got, versions)
	}

	// Teardown: close every server and drain idle connections, then the
	// process must quiesce — the fault suite demands zero leaked
	// goroutines.
	for _, ts := range servers {
		ts.Close()
	}
	closePeers(coord.peers...)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d now vs %d before\n%s",
				runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestZeroOptionsRetryIdempotentCalls pins the fixed default: a peer
// client as New builds it — what beserve -peers runs — retries an
// idempotent call, so one dropped attempt costs a retry, not the
// request. With its retries set to 0 it does not retry.
func TestZeroOptionsRetryIdempotentCalls(t *testing.T) {
	tb := randomBed(t)
	node, err := NewNode(tb.schema, tb.access, 0, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(node.InternalHandler())
	t.Cleanup(ts.Close)
	rt := &chaosRT{}
	var attempts atomic.Int32
	rt.setRule(func(int, method) string {
		if attempts.Add(1) == 1 {
			return "drop"
		}
		return ""
	})
	ctx := context.Background()
	p, err := newPeerClient(0, ts.URL, tb.schema, tb.access)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.closeIdle)
	rt.install(p)
	if _, err := p.Status(ctx); err != nil {
		t.Fatalf("zero Options: a dropped first attempt failed the call: %v", err)
	}
	attempts.Store(0)
	p.retries = 0
	if _, err := p.Status(ctx); !errors.Is(err, errChaosDrop) {
		t.Fatalf("retries 0: a dropped attempt answered %v, want the drop", err)
	}
}

// TestCanceledCallLeavesBreakerClosed pins that only a peer's own
// failures trip its circuit breaker. Calls that fail because the
// caller's context ended — with retries off, and for a call that is
// never retried (abort) — must leave a healthy peer serving: the next
// query's fetch is sent, not refused as circuit open.
func TestCanceledCallLeavesBreakerClosed(t *testing.T) {
	tb := randomBed(t)
	coord, _, _ := startCluster(t, tb, 1, time.Minute)
	coord.peers[0].retries = 0
	if err := coord.Load(tb.build()); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	p := coord.peers[0]
	if _, err := p.Status(canceled); err == nil {
		t.Fatal("a status call under a canceled context succeeded")
	}
	if err := p.Abort(canceled, "txn-none"); err == nil {
		t.Fatal("an abort under a canceled context succeeded")
	}
	q := &cq.CQ{Label: "probe", Free: []string{"b"}, Atoms: []cq.Atom{
		cq.NewAtom("R", cq.Const(iv(1)), cq.Var("b"))}}
	res, err := coord.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("the query after the caller's own cancellations was refused: %v", err)
	}
	if res.Mode != core.ViaBoundedPlan || len(res.Rows) == 0 {
		t.Fatalf("probe served via %v with %d rows, want a bounded fetch with rows", res.Mode, len(res.Rows))
	}
}

// TestCanceledCallClosesItsConnection pins that a connection whose call
// was cancelled is closed, never pooled: here a fetch's request frame is
// out and its answer on the way when the caller gives up, and the
// peer's next call — a status — must read its own answer, not the
// fetch's.
func TestCanceledCallClosesItsConnection(t *testing.T) {
	tb := randomBed(t)
	coord, _, urls := startCluster(t, tb, 1, testCooldown)
	if err := coord.Load(tb.build()); err != nil {
		t.Fatal(err)
	}
	p := testPeer(t, 0, urls[0], tb)
	p.retries = 0
	ctx, cancel := context.WithCancel(context.Background())
	p.exchange = func(pc *peerConn, m method, body []byte) (int, []byte, error) {
		if err := writeFrame(pc.w, uint64(m), body); err != nil {
			return 0, nil, err
		}
		cancel()
		return 0, nil, context.Canceled
	}
	view, _ := p.Pin(0)
	keys := [][]byte{[]byte(keyOf(1))}
	if err := view.Fetcher(0).(plan.BatchFetcher).FetchBatch(ctx, keys, make([]index.Bucket, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fetch answered %v", err)
	}
	p.exchange = (*peerConn).roundTrip
	st, err := p.Status(context.Background())
	if err != nil || st.Shards != 1 || st.Size == 0 {
		t.Fatalf("status after a cancelled fetch: %+v, %v", st, err)
	}
}
