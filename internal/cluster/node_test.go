package cluster

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/live"
)

// TestDrainFinishesCommitInFlight shuts a durable node down the way
// beserve does — Drain, then the parting checkpoint and CloseDurable —
// while a commit is in flight on a framed connection, its WAL record
// written but not yet synced. Drain must not return before that call
// has run out, so nothing races the checkpoint, and the commit is
// either acknowledged and recovered after a restart over the same
// directory, or never acknowledged. Within the grace window the call is
// answered; past it the connection is cut and the coordinator hears no
// acknowledgement.
func TestDrainFinishesCommitInFlight(t *testing.T) {
	for _, tc := range []struct {
		name        string
		grace, hold time.Duration
		acked       bool
	}{
		{"within grace", 10 * time.Second, 50 * time.Millisecond, true},
		{"past grace", 30 * time.Millisecond, 100 * time.Millisecond, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := accidentsBed(t)
			ctx := context.Background()
			dir := t.TempDir()
			var armed atomic.Bool
			reached, release := make(chan struct{}), make(chan struct{})
			hook := func(point string) {
				if point == durable.PointWALWritten && armed.CompareAndSwap(true, false) {
					close(reached)
					<-release
				}
			}
			node, err := NewNode(tb.schema, tb.access, 0, 1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := node.Durable(ctx, dir, hook); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(node.InternalHandler())
			t.Cleanup(ts.Close)
			opts := testOptions(t)
			opts.Backoff, opts.Cooldown = time.Millisecond, time.Millisecond
			coord, err := New(tb.schema, tb.access, []string{ts.URL}, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { closePeers(coord.peers...) })
			if err := coord.Load(tb.build()); err != nil {
				t.Fatal(err)
			}
			size := coord.Stats().Size

			armed.Store(true)
			applied := make(chan error, 1)
			go func() {
				d := live.NewDelta(tb.schema)
				d.MustInsert("Accident", iv(900001), sv("Nowhere"), sv("9/9/1999"))
				_, err := coord.Apply(ctx, d)
				applied <- err
			}()
			<-reached

			drained := make(chan error, 1)
			go func() {
				gctx, cancel := context.WithTimeout(ctx, tc.grace)
				defer cancel()
				drained <- node.Drain(gctx)
			}()
			time.Sleep(tc.hold)
			select {
			case err := <-drained:
				t.Fatalf("Drain returned %v while the commit was still running", err)
			default:
			}
			close(release)
			if derr := <-drained; (derr == nil) != tc.acked {
				t.Fatalf("Drain = %v", derr)
			}
			aerr := <-applied
			if (aerr == nil) != tc.acked {
				t.Fatalf("Apply = %v, want acknowledged %v", aerr, tc.acked)
			}
			// The parting checkpoint and close, then a restart.
			if _, err := node.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
			if err := node.CloseDurable(); err != nil {
				t.Fatal(err)
			}
			again, err := NewNode(tb.schema, tb.access, 0, 1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := again.Durable(ctx, dir, nil); err != nil || !ok {
				t.Fatalf("restart recovered %v, %v", ok, err)
			}
			t.Cleanup(func() { again.CloseDurable() })
			st, err := again.part.Status(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if aerr == nil && (st.Version != 1 || st.Size != size+1) {
				t.Fatalf("an acknowledged commit recovered as version %d, size %d; want 1, %d", st.Version, st.Size, size+1)
			}
		})
	}
}

// TestRestartedNodeTakesTheNextWrite restarts a node at the same address
// behind a coordinator's idle pooled connection — the old process gone,
// its connections with it — and demands that the next call that may not
// be retried, an abort, reaches the new process instead of failing on
// the dead connection.
func TestRestartedNodeTakesTheNextWrite(t *testing.T) {
	tb := randomBed(t)
	serveAt := func(addr string) (*Node, *http.Server, string) {
		node, err := NewNode(tb.schema, tb.access, 0, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: node.InternalHandler()}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		return node, srv, ln.Addr().String()
	}
	node, srv, addr := serveAt("127.0.0.1:0")
	p := testPeer(t, 0, "http://"+addr, tb, testOptions(t))
	if _, err := p.Status(context.Background()); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	srv.Close()
	node.Drain(dead)
	serveAt(addr)
	if err := p.Abort(context.Background(), "txn-none"); err != nil {
		t.Fatalf("the first write after a restart: %v", err)
	}
}
