package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// cfg builds a cliConfig with the flag defaults, tweaked by fn.
func cfg(fn func(*cliConfig)) cliConfig {
	c := cliConfig{
		addr: "127.0.0.1:0", days: 2, people: 200, shards: 1,
		maxInFlight: 16, queueTimeout: time.Second, shutdownGrace: 5 * time.Second,
	}
	if fn != nil {
		fn(&c)
	}
	return c
}

func TestSetupErrors(t *testing.T) {
	ctx := context.Background()
	if _, _, err := build(ctx, cfg(nil)); err == nil {
		t.Error("no input source must error")
	}
	if _, _, err := build(ctx, cfg(func(c *cliConfig) { c.demo = "bogus" })); err == nil {
		t.Error("unknown demo must error")
	}
	if _, _, err := build(ctx, cfg(func(c *cliConfig) { c.file = "does-not-exist.bq" })); err == nil {
		t.Error("missing document must error")
	}
	// Topology flags the chosen mode would ignore are refused, not
	// dropped.
	for name, fn := range map[string]func(*cliConfig){
		"-shards with -peers":       func(c *cliConfig) { c.demo = "accidents"; c.shards = 4; c.peers = "http://127.0.0.1:1" },
		"-shards with -shard-count": func(c *cliConfig) { c.demo = "accidents"; c.shards = 4; c.shardCount = 2 },
		"-shard-id alone":           func(c *cliConfig) { c.demo = "accidents"; c.shardID = 2 },
	} {
		if _, _, err := build(ctx, cfg(fn)); err == nil {
			t.Errorf("%s must error", name)
		}
	}
}

// serve runs beserve with c on an ephemeral port and returns its base
// URL; stop cancels it and demands a graceful shutdown.
func serve(t *testing.T, c cliConfig) (base string, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, c, func(addr string) { addrCh <- addr }) }()
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-done:
		cancel()
		t.Fatalf("server exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("server never came up")
	}
	return base, func() {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("graceful shutdown returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("shutdown never completed")
		}
	}
}

// TestServeAndShutdown boots the real server on an ephemeral port,
// exercises the endpoints over TCP for 1 and 4 shards, then shuts down
// gracefully via context cancellation (the SIGINT path).
func TestServeAndShutdown(t *testing.T) {
	for _, shards := range []int{1, 4} {
		base, stop := serve(t, cfg(func(c *cliConfig) { c.demo = "accidents"; c.shards = shards }))
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var health struct {
			Status string
			Size   int
		}
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if health.Status != "ok" || health.Size == 0 {
			t.Errorf("shards=%d: healthz = %+v", shards, health)
		}

		resp, err = http.Post(base+"/v1/query", "application/json", strings.NewReader(`{"query":"Q0"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("shards=%d: query status=%d err=%v", shards, resp.StatusCode, err)
		}
		if !strings.Contains(string(body), `"xa":`) {
			t.Errorf("shards=%d: rows lack the xa column:\n%s", shards, body)
		}

		stop()
	}
}

// TestShardNodeSurface pins what a -shard-count node serves: its
// /healthz, /metrics, /v1/checkpoint and the framed partition wire — a
// 426 for the retired per-call paths — and a 421
// not_coordinator refusal on every public endpoint a coordinator serves
// — a node's answer over its share alone would look exact while
// covering half the data.
func TestShardNodeSurface(t *testing.T) {
	base, stop := serve(t, cfg(func(c *cliConfig) { c.demo = "accidents"; c.shardCount = 2; c.shardID = 0 }))
	defer stop()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/healthz")
	var health struct {
		Status string
		Size   int
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil || code != http.StatusOK || health.Status != "ok" || health.Size == 0 {
		t.Errorf("healthz: %d %s", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "beserve_engine_shards 2\n") {
		t.Errorf("metrics: %d\n%s", code, body)
	}
	// The retired per-call wire is refused with the protocol to upgrade
	// to; the partition wire is a framed connection.
	if code, body := get("/v1/internal/status"); code != http.StatusUpgradeRequired || !strings.Contains(body, `"upgrade_required"`) {
		t.Errorf("internal status over plain HTTP: %d %s, want 426 upgrade_required", code, body)
	}
	conn, st := framedStatus(t, strings.TrimPrefix(base, "http://"))
	defer conn.Close()
	if st.Shard != 0 || st.Shards != 2 || st.Size == 0 {
		t.Errorf("framed status = %+v, want shard 0 of 2 holding data", st)
	}
	// Without -data-dir the node's own checkpoint is a structured 409.
	resp, err := http.Post(base+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(ckpt), `"not_durable"`) {
		t.Errorf("checkpoint: %d %s", resp.StatusCode, ckpt)
	}

	for _, req := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/query", `{"query":"Q0"}`},
		{http.MethodGet, "/v1/explain?query=Q0", ""},
		{http.MethodPost, "/v1/apply", "+\tAccident\t900002\tAngel\t1/6/2005\n"},
		{http.MethodGet, "/v1/schema", ""},
	} {
		r, err := http.NewRequest(req.method, base+req.path, strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		var refusal struct {
			Error struct{ Code, Message string }
		}
		err = json.NewDecoder(resp.Body).Decode(&refusal)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusMisdirectedRequest || refusal.Error.Code != "not_coordinator" ||
			!strings.Contains(refusal.Error.Message, "coordinator") {
			t.Errorf("%s %s: %d %+v (err %v), want 421 not_coordinator", req.method, req.path, resp.StatusCode, refusal, err)
		}
	}
}

// framedStatus upgrades a connection to addr's partition wire and makes
// one status call on it by hand — request frame: method 1 (status),
// empty body; answer frame: uvarint status, uvarint length, then the
// uvarints shard, shards, version, size and catalog — so the test pins
// the bytes a node speaks, not a client's idea of them.
func framedStatus(t *testing.T, addr string) (net.Conn, struct{ Shard, Shards, Size int }) {
	t.Helper()
	var st struct{ Shard, Shards, Size int }
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "GET /v1/internal/conn HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: beserve-partition/2\r\n\r\n", addr)
	r := bufio.NewReader(conn)
	resp, err := http.ReadResponse(r, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v %v", resp, err)
	}
	if _, err := conn.Write([]byte{1, 0}); err != nil {
		t.Fatal(err)
	}
	status, err := binary.ReadUvarint(r)
	if err != nil {
		t.Fatal(err)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		t.Fatal(err)
	}
	var fields [5]uint64
	rest := body
	for i := range fields {
		x, k := binary.Uvarint(rest)
		if k <= 0 {
			t.Fatalf("framed status: %d %x", status, body)
		}
		fields[i], rest = x, rest[k:]
	}
	if status != http.StatusOK || len(rest) != 0 {
		t.Fatalf("framed status: %d %x", status, body)
	}
	st.Shard, st.Shards, st.Size = int(fields[0]), int(fields[1]), int(fields[3])
	return conn, st
}

// TestShutdownDrainsFramedConnections pins that a shard node's graceful
// shutdown ends the framed connections http.Server.Shutdown does not
// track: a coordinator's connection, idle when the signal comes, is
// closed by the node before run returns.
func TestShutdownDrainsFramedConnections(t *testing.T) {
	base, stop := serve(t, cfg(func(c *cliConfig) { c.demo = "accidents"; c.shardCount = 2; c.shardID = 1 }))
	conn, _ := framedStatus(t, strings.TrimPrefix(base, "http://"))
	defer conn.Close()
	stop()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("framed connection after shutdown: read %d bytes, %v; want EOF", n, err)
	}
}
