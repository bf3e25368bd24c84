// Command beserve exposes the bounded-evaluation engine over HTTP: the
// network boundary in front of Engine.Query and Engine.Apply, with the
// same consistency and admission guarantees (see internal/server).
//
// Usage:
//
//	beserve -addr :8080 -demo accidents
//	beserve -addr :8080 -file doc.bq -data dir -shards 4
//	beserve -addr :8080 -demo accidents -data-dir /var/lib/beserve
//	beserve -demo social -people 5000 -max-inflight 128 -queue-timeout 500ms
//
// Endpoints:
//
//	POST /v1/query      {"query":"Q0","budget":100,"timeout":"2s"} → NDJSON rows
//	POST /v1/apply      delta TSV body → {"inserted":N,"deleted":N,"size":|D|}
//	POST /v1/checkpoint → {"version":N} (requires -data-dir)
//	GET  /v1/explain?query=Q0
//	GET  /v1/schema
//	GET  /healthz
//	GET  /metrics
//
// The engine is an internal/shard fleet of -shards K in-process
// partitions (K = 1, the default, is one partition holding everything);
// the wire behavior is byte-identical for every K.
//
// Distributed serving (internal/cluster) splits those shards across
// processes:
//
//	beserve -addr :8081 -demo accidents -shard-count 3 -shard-id 0
//	beserve -addr :8082 -demo accidents -shard-count 3 -shard-id 1
//	beserve -addr :8083 -demo accidents -shard-count 3 -shard-id 2
//	beserve -addr :8080 -demo accidents -peers http://localhost:8081,http://localhost:8082,http://localhost:8083
//
// A -shard-id node loads only its hash share of the dataset and serves
// the partition wire its coordinator drives — persistent framed
// connections upgraded from GET /v1/internal/conn — plus its own
// /healthz, /metrics and POST /v1/checkpoint; every other public
// endpoint (/v1/query, /v1/apply, /v1/explain, /v1/schema) answers 421
// not_coordinator, since an answer over one share would look exact
// while covering part of the data. A -peers coordinator loads nothing:
// it attaches to the fleet (retrying until every node is up) and serves
// the whole dataset — reads route or scatter-gather by partition key,
// writes run a two-phase staged commit across all nodes. Its wire
// output is byte-identical to a single-node beserve over the same data.
// -shards belongs to the in-process mode alone, and -shard-id needs
// -shard-count: either one elsewhere is refused, not ignored.
//
// -slow-query-ms N logs every /v1/query slower than N ms as one
// structured JSON line on stderr (canonical plan-cache key, bound,
// stats, top-3 spans). -debug-addr serves net/http/pprof on a separate
// listener, so CPU/heap profiles never share a port with the API.
//
// -data-dir enables durability (internal/durable): every applied delta
// is WAL-logged and fsynced before it becomes visible, so a restart —
// including kill -9 — recovers every committed delta. On startup, a
// data directory that already holds state is recovered (checkpoint +
// WAL replay) and the initial -demo/-data load is skipped; /healthz
// reports the recovered version. On SIGINT/SIGTERM the server stops
// accepting, drains in-flight streaming responses — and on a shard
// node, the calls in flight on its framed connections — for up to
// -shutdown-grace, then writes a final checkpoint so the next start
// recovers without replay.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/workload"
)

// recoverable is what -data-dir needs of what a process serves:
// shard.Engine for an in-process fleet, cluster.Node for one shard
// server.
type recoverable interface {
	Load(d *data.Instance) error
	Durable(ctx context.Context, dir string, hook durable.Hook) (bool, error)
	Checkpoint(ctx context.Context) (uint64, error)
	CloseDurable() error
}

// cliConfig collects every flag; one value per invocation.
type cliConfig struct {
	addr          string
	file          string
	dataDir       string
	durableDir    string
	demo          string
	days          int
	people        int
	shards        int
	shardID       int
	shardCount    int
	peers         string
	attachWait    time.Duration
	maxInFlight   int
	queueTimeout  time.Duration
	stallTimeout  time.Duration
	shutdownGrace time.Duration
	slowMS        int
	debugAddr     string
}

func main() {
	var cfg cliConfig
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.file, "file", "", "input document (relations, constraints, queries)")
	flag.StringVar(&cfg.dataDir, "data", "", "directory of <Relation>.tsv files to load with -file")
	flag.StringVar(&cfg.durableDir, "data-dir", "", "durability directory (WAL + checkpoints); existing state is recovered and the initial load skipped")
	flag.StringVar(&cfg.demo, "demo", "", "built-in workload: accidents | social")
	flag.IntVar(&cfg.days, "days", 20, "accidents demo: days of data")
	flag.IntVar(&cfg.people, "people", 2000, "social demo: people")
	flag.IntVar(&cfg.shards, "shards", 1, "hash-partition the data across K in-process partitions (internal/shard); 1 keeps it whole")
	flag.IntVar(&cfg.shardID, "shard-id", 0, "this node's shard id when -shard-count is set")
	flag.IntVar(&cfg.shardCount, "shard-count", 0, "serve as cluster shard node -shard-id of this many; loads only that hash share")
	flag.StringVar(&cfg.peers, "peers", "", "serve as cluster coordinator over these comma-separated node base URLs (in shard order)")
	flag.DurationVar(&cfg.attachWait, "attach-wait", 30*time.Second, "how long the coordinator retries attaching to its peers at startup")
	flag.IntVar(&cfg.maxInFlight, "max-inflight", server.DefaultMaxInFlight, "admission cap on concurrent query/apply requests")
	flag.DurationVar(&cfg.queueTimeout, "queue-timeout", server.DefaultQueueTimeout, "how long a request may wait for an admission slot before 503")
	flag.DurationVar(&cfg.stallTimeout, "stall-timeout", server.DefaultStallTimeout, "per-I/O deadline evicting stalled clients from their admission slot")
	flag.DurationVar(&cfg.shutdownGrace, "shutdown-grace", 10*time.Second, "drain window for in-flight responses on SIGINT/SIGTERM")
	flag.IntVar(&cfg.slowMS, "slow-query-ms", 0, "log a structured slow-query line to stderr when a /v1/query exceeds this many milliseconds (0 = off)")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, func(addr string) { log.Printf("beserve: listening on %s", addr) }); err != nil {
		fmt.Fprintln(os.Stderr, "beserve:", err)
		os.Exit(1)
	}
}

// run builds the engine and serves until ctx is canceled, then shuts
// down gracefully — and, when -data-dir is set, writes a final
// checkpoint after the drain so the next start recovers replay-free.
// ready, when non-nil, is called with the bound listen address once the
// listener is up (tests use it to learn the port).
func run(ctx context.Context, cfg cliConfig, ready func(addr string)) error {
	srv, finalize, err := build(ctx, cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.debugAddr != "" {
		// The pprof surface lives on its own listener so it can be bound
		// to localhost (or firewalled) independently of the serving
		// address, and never shares a mux with the public API.
		dln, err := net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer dln.Close()
		log.Printf("beserve: pprof on http://%s/debug/pprof/", dln.Addr())
		go http.Serve(dln, debugMux())
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	// No blanket WriteTimeout — it would cut legitimate long streams;
	// the server's rolling per-I/O stall deadline handles dead clients.
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		// Stop accepting and drain in-flight (including streaming)
		// responses; past the grace window they are cut. finalize
		// drains, within the same window, what Shutdown cannot see — a
		// shard node's framed connections — before its parting
		// checkpoint.
		gctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownGrace)
		defer cancel()
		err := hs.Shutdown(gctx)
		if ferr := finalize(gctx); ferr != nil && err == nil {
			err = ferr
		}
		shutdownErr <- err
	}()
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return <-shutdownErr
}

// debugMux serves net/http/pprof on explicit routes — registering on a
// fresh mux rather than relying on the package's DefaultServeMux side
// effects, so the debug surface is exactly these five handlers.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// build assembles what the process serves from the flags, mirroring
// bequery's input sources (document+TSV data, or a built-in demo). The
// returned finalize runs at shutdown, after http.Server.Shutdown: on a
// shard node it first drains the framed connections within ctx; then —
// once no call runs, so no writer can race it — it writes the parting
// checkpoint and closes the durable store, which is skipped without
// -data-dir.
func build(ctx context.Context, cfg cliConfig) (http.Handler, func(context.Context) error, error) {
	h, drain, dur, loaded, err := setup(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	if !loaded {
		return nil, nil, fmt.Errorf("no data loaded (use -demo, or -file with -data, or -data-dir with recoverable state)")
	}
	finalize := func(ctx context.Context) error {
		var err error
		if drain != nil {
			err = drain(ctx)
		}
		if dur == nil {
			return err
		}
		v, cerr := dur.Checkpoint(context.Background())
		if cerr != nil {
			dur.CloseDurable()
			return errors.Join(err, fmt.Errorf("parting checkpoint: %w", cerr))
		}
		log.Printf("beserve: checkpointed version %d", v)
		return errors.Join(err, dur.CloseDurable())
	}
	return h, finalize, nil
}

// newServer fronts eng with the public API under the admission flags.
func newServer(cfg cliConfig, eng core.Queryable, cat server.Catalog) (*server.Server, error) {
	return server.New(eng, cat, server.Options{
		MaxInFlight:  cfg.maxInFlight,
		QueueTimeout: cfg.queueTimeout,
		StallTimeout: cfg.stallTimeout,
		SlowLog:      obs.NewSlowLog(os.Stderr, time.Duration(cfg.slowMS)*time.Millisecond),
	})
}

// loadOrRecover wires -data-dir into eng — recovery if the directory
// holds state, otherwise just the WAL/checkpoint plumbing for writes to
// come — and loads the source's data unless the recovered snapshot
// already is the data. It returns eng as the durable store build
// finalizes (nil without -data-dir) and whether data is loaded;
// /healthz reports the version a recovery resumed at.
func loadOrRecover(ctx context.Context, cfg cliConfig, src *source, eng recoverable) (recoverable, bool, error) {
	var dur recoverable
	if cfg.durableDir != "" {
		restored, err := eng.Durable(ctx, cfg.durableDir, nil)
		if err != nil {
			return nil, false, err
		}
		dur = eng
		if restored {
			log.Printf("beserve: recovered committed state from %s", cfg.durableDir)
			return dur, true, nil
		}
	}
	if src.inst == nil {
		return dur, false, nil
	}
	d, err := src.inst()
	if err != nil {
		return nil, false, err
	}
	if err := eng.Load(d); err != nil {
		return nil, false, err
	}
	return dur, true, nil
}

// source is the resolved catalog plus a lazy loader for the dataset it
// describes (nil when the invocation names no data, e.g. -file without
// -data).
type source struct {
	cat  server.Catalog
	inst func() (*data.Instance, error)
}

// resolveSource turns the input flags (-file/-data or -demo) into the
// serving catalog and the dataset loader, shared by all serving modes.
func resolveSource(cfg cliConfig) (*source, error) {
	switch {
	case cfg.file != "":
		raw, err := os.ReadFile(cfg.file)
		if err != nil {
			return nil, err
		}
		doc, err := parser.Parse(string(raw))
		if err != nil {
			return nil, err
		}
		src := &source{cat: server.CatalogFromDocument(doc)}
		if cfg.dataDir != "" {
			src.inst = func() (*data.Instance, error) { return load.LoadInstance(doc.Schema, cfg.dataDir) }
		}
		return src, nil
	case cfg.demo == "accidents", cfg.demo == "social":
		var dm *workload.Demo
		var err error
		if cfg.demo == "accidents" {
			dm, err = workload.AccidentsDemo(cfg.days)
		} else {
			dm, err = workload.SocialDemo(cfg.people)
		}
		if err != nil {
			return nil, err
		}
		return &source{
			cat:  server.Catalog{Schema: dm.Schema, Access: dm.Access, Queries: dm.Queries, Params: dm.Params},
			inst: func() (*data.Instance, error) { return dm.Instance, nil },
		}, nil
	default:
		return nil, fmt.Errorf("provide -file or -demo accidents|social")
	}
}

// setup builds what the process serves: the public API over an engine,
// or a shard node's own handler and the drain of its framed connections
// (nil in every other mode). dur is the durable store under
// -data-dir (nil otherwise), and loaded reports whether data was
// attached (checked in O(1) — materializing a sharded engine's merged
// instance just to test for data would copy the whole dataset). With
// -data-dir, a directory already holding durable state short-circuits
// the load: the recovered snapshot IS the data.
func setup(ctx context.Context, cfg cliConfig) (h http.Handler, drain func(context.Context) error, dur recoverable, loaded bool, err error) {
	switch {
	case cfg.shardCount > 0 && cfg.peers != "":
		return nil, nil, nil, false, fmt.Errorf("-shard-count and -peers are mutually exclusive")
	case cfg.shards != 1 && (cfg.peers != "" || cfg.shardCount > 0):
		return nil, nil, nil, false, fmt.Errorf("-shards is an in-process flag; a cluster's partition count is its -shard-count, one partition per node")
	case cfg.shardID != 0 && cfg.shardCount == 0:
		return nil, nil, nil, false, fmt.Errorf("-shard-id needs -shard-count")
	}
	src, err := resolveSource(cfg)
	if err != nil {
		return nil, nil, nil, false, err
	}
	switch {
	case cfg.peers != "":
		coord, err := setupCoordinator(ctx, cfg, src)
		if err != nil {
			return nil, nil, nil, false, err
		}
		srv, err := newServer(cfg, coord, src.cat)
		return srv, nil, nil, true, err
	case cfg.shardCount > 0:
		// A cluster shard node keeps only its hash share of the dataset
		// (the whole dataset may be offered — every node in a fleet can be
		// pointed at the same -demo or -data) and serves the partition
		// wire the coordinator drives, never the public API.
		node, err := cluster.NewNode(src.cat.Schema, src.cat.Access, cfg.shardID, cfg.shardCount, cluster.Options{})
		if err != nil {
			return nil, nil, nil, false, err
		}
		if dur, loaded, err = loadOrRecover(ctx, cfg, src, node); err != nil {
			return nil, nil, nil, false, err
		}
		log.Printf("beserve: shard node %d of %d", cfg.shardID, cfg.shardCount)
		return node.InternalHandler(), node.Drain, dur, loaded, nil
	default:
		fleet, err := shard.New(src.cat.Schema, src.cat.Access, shard.Options{Shards: cfg.shards})
		if err != nil {
			return nil, nil, nil, false, err
		}
		if dur, loaded, err = loadOrRecover(ctx, cfg, src, fleet); err != nil {
			return nil, nil, nil, false, err
		}
		srv, err := newServer(cfg, fleet, src.cat)
		return srv, nil, dur, loaded, err
	}
}

// setupCoordinator builds the scatter-gather coordinator and attaches
// to the fleet, retrying while the nodes come up. The coordinator loads
// no data of its own — the nodes' committed state is the dataset — so
// -data-dir is refused here (durability lives on the nodes).
func setupCoordinator(ctx context.Context, cfg cliConfig, src *source) (*cluster.Engine, error) {
	if cfg.durableDir != "" {
		return nil, fmt.Errorf("-data-dir is a shard-node flag; the coordinator holds no data")
	}
	urls := strings.Split(cfg.peers, ",")
	for i := range urls {
		urls[i] = strings.TrimRight(strings.TrimSpace(urls[i]), "/")
	}
	eng, err := cluster.New(src.cat.Schema, src.cat.Access, urls, cluster.Options{})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(cfg.attachWait)
	for {
		err = eng.Attach(ctx)
		if err == nil {
			break
		}
		if ctx.Err() != nil || !time.Now().Before(deadline) {
			return nil, fmt.Errorf("attach to peers: %w", err)
		}
		time.Sleep(500 * time.Millisecond)
	}
	st := eng.Stats()
	log.Printf("beserve: coordinator over %d shard nodes (size %d, version %d)", st.Shards, st.Size, st.Version)
	return eng, nil
}
