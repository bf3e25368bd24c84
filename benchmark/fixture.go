package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/workload"
)

// fixture is one workload set up end to end: generated data loaded
// into the topology under test, served on real loopback TCP listeners,
// with its traffic generated and its plan cache warm.
type fixture struct {
	spec workloadSpec
	data dataset
	mix  *mix
	// engine is what the public server fronts; exactly one of single,
	// sharded, coord is the same engine under its own type.
	engine  core.Queryable
	single  *core.Engine
	sharded *shard.Engine
	coord   *cluster.Engine
	srv     *server.Server
	// ref is the oracle's single-node engine (see reference).
	ref *core.Engine
	// url is the public server's base URL.
	url string
	// cursor is each query client's position in its sequence.
	cursor [numClients]int
	// stream feeds the writer; nil without one.
	stream *workload.AccidentStream
	// tr and rpc are the traced pass's instruments; both idle (one
	// atomic load per call) until tr.on is set.
	tr  *tracer
	rpc *countingTransport
	// dataDir is the durable engine's directory, "" without one.
	dataDir string
	tuples  int
	setupS  float64
	heapMB  float64
	closers []func()
}

// close stops every listener the fixture started (Close waits for the
// serving goroutines) and removes its data directory.
func (fx *fixture) close() {
	for i := len(fx.closers) - 1; i >= 0; i-- {
		fx.closers[i]()
	}
	fx.closers = nil
}

// listen serves h on a fresh loopback TCP listener.
func (fx *fixture) listen(h http.Handler) string {
	ts := httptest.NewServer(h)
	fx.closers = append(fx.closers, ts.Close)
	return ts.URL
}

// setUp builds the fixture and times it: generate, load, index, start
// listeners, load the cluster, generate the traffic, and send every
// distinct request once (which fills the plan cache and opens the
// connections' lazy state). The correctness oracle is not part of it.
func setUp(spec workloadSpec, cfg config) (fx *fixture, err error) {
	seed := cfg.seed
	start := time.Now()
	fx = &fixture{spec: spec, data: newDataset(spec.data, seed, cfg.scale), tr: newTracer()}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	inst, err := fx.data.generate()
	if err != nil {
		return nil, err
	}
	fx.tuples = inst.Size()
	var facts *socialFacts
	if spec.data == dataSocial {
		facts = newSocialFacts(inst)
	}
	s, a := fx.data.schema, fx.data.access
	if spec.writer {
		// The stream continues the loaded identifier space on days past
		// the loaded ones, so the reads' answers never change.
		cfg := workload.DefaultAccidentStreamConfig()
		cfg.Seed = seed ^ saltStream
		fx.stream, err = workload.NewAccidentStream(&workload.Accidents{Schema: s, Access: a, Instance: inst}, cfg)
		if err != nil {
			return nil, err
		}
	}
	switch spec.topo {
	case topoSingle:
		if fx.single, err = core.New(s, a, core.Options{}); err != nil {
			return nil, err
		}
		fx.engine = fx.single
	case topoShard:
		if fx.sharded, err = shard.New(s, a, shard.Options{Shards: spec.k}); err != nil {
			return nil, err
		}
		fx.engine = fx.sharded
		if spec.durable {
			if fx.dataDir, err = os.MkdirTemp(cfg.outDir, "data-"); err != nil {
				return nil, err
			}
			fx.closers = append(fx.closers, func() {
				_ = fx.sharded.CloseDurable() // the directory is deleted next
				os.RemoveAll(fx.dataDir)
			})
			// Default flush policy: the WAL is fsynced before every swap.
			if _, err = fx.sharded.Durable(context.Background(), fx.dataDir, nil); err != nil {
				return nil, err
			}
		}
	case topoCluster:
		urls := make([]string, spec.k)
		for i := range urls {
			node, err := cluster.NewNode(s, a, i, spec.k, cluster.Options{})
			if err != nil {
				return nil, err
			}
			urls[i] = fx.listen(tracedHandler(node.InternalHandler(), fx.tr))
		}
		base := &http.Transport{MaxIdleConnsPerHost: 16}
		fx.closers = append(fx.closers, base.CloseIdleConnections)
		fx.rpc = &countingTransport{base: base, tr: fx.tr}
		if fx.coord, err = cluster.New(s, a, urls, cluster.Options{Client: &http.Client{Transport: fx.rpc}}); err != nil {
			return nil, err
		}
		fx.engine = fx.coord
	}
	if err = fx.engine.Load(inst); err != nil {
		return nil, err
	}

	fx.mix = newMix(spec.reqs, seed, cfg.scale, facts)
	fx.srv, err = server.New(fx.engine, server.Catalog{Schema: s, Access: a, Queries: fx.mix.catalog}, server.Options{})
	if err != nil {
		return nil, err
	}
	fx.url = fx.listen(fx.srv)

	cl := newClient(fx.url)
	defer cl.close()
	for i, r := range fx.mix.distinct {
		if _, err := cl.query(r); err != nil {
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	fx.setupS = time.Since(start).Seconds()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fx.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	return fx, nil
}
