package main

import (
	"context"
	"encoding/json"
	"io"
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
}

// TestServeAndShutdown boots the real server on an ephemeral port,
// exercises the endpoints over TCP for 1 and 4 shards, then shuts down
// gracefully via context cancellation (the SIGINT path).
func TestServeAndShutdown(t *testing.T) {
	for _, shards := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		addrCh := make(chan string, 1)
		done := make(chan error, 1)
		go func() {
			done <- run(ctx, cfg(func(c *cliConfig) { c.demo = "accidents"; c.shards = shards }),
				func(addr string) { addrCh <- addr })
		}()
		var base string
		select {
		case addr := <-addrCh:
			base = "http://" + addr
		case err := <-done:
			t.Fatalf("shards=%d: server exited before listening: %v", shards, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("shards=%d: server never came up", shards)
		}

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

		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("shards=%d: graceful shutdown returned %v", shards, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("shards=%d: shutdown never completed", shards)
		}
	}
}
