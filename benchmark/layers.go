package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/index"
	"repro/internal/live"
	"repro/internal/ndjson"
	"repro/internal/plan"
	"repro/internal/shard"
)

// perLayer are the metrics of single layers (layer = module name),
// taken by the traced pass from outside: the harness's own spans around
// calls into each layer's exported functions. A layer the workload does
// not exercise reports 0. README.md says how each is taken and which
// end-to-end metric it should move.
var perLayer = []metricDef{
	{Name: "wire.query_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.apply_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.handle_us", Unit: "us", Better: "lower"},
	{Name: "server.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.refused", Unit: "count", Better: "lower"},
	{Name: "parser.parse_us", Unit: "us", Better: "lower"},
	{Name: "cq.canonical_key_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_miss_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_hit_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.query_us", Unit: "us", Better: "lower"},
	{Name: "plan.exec_us", Unit: "us", Better: "lower"},
	{Name: "plan.fetch_keys_per_query", Unit: "count", Better: "lower"},
	{Name: "plan.rows_per_query", Unit: "count", Better: "lower"},
	{Name: "plan.fetched_over_bound", Unit: "ratio", Better: "lower"},
	{Name: "index.fetch_ns", Unit: "ns", Better: "lower"},
	{Name: "index.merge_us", Unit: "us", Better: "lower"},
	{Name: "ndjson.write_us", Unit: "us", Better: "lower"},
	{Name: "ndjson.ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "ndjson.bytes_per_query", Unit: "bytes", Better: "lower"},
	{Name: "shard.query_us", Unit: "us", Better: "lower"},
	{Name: "shard.overhead_us", Unit: "us", Better: "lower"},
	{Name: "shard.apply_us", Unit: "us", Better: "lower"},
	{Name: "cluster.query_us", Unit: "us", Better: "lower"},
	{Name: "cluster.rpcs_per_query", Unit: "count", Better: "lower"},
	{Name: "cluster.rpc_rtt_us", Unit: "us", Better: "lower"},
	{Name: "cluster.rpc_req_bytes", Unit: "bytes", Better: "lower"},
	{Name: "cluster.rpc_resp_bytes", Unit: "bytes", Better: "lower"},
	{Name: "cluster.rpc_failed", Unit: "count", Better: "lower"},
	{Name: "cluster.node_handle_us", Unit: "us", Better: "lower"},
	{Name: "cluster.coord_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.residual_pct", Unit: "%", Better: "lower"},
	{Name: "live.stage_us", Unit: "us", Better: "lower"},
	{Name: "live.violations_us", Unit: "us", Better: "lower"},
	{Name: "live.commit_us", Unit: "us", Better: "lower"},
	{Name: "live.delta_ops", Unit: "count", Better: "lower"},
	{Name: "durable.wal_append_us", Unit: "us", Better: "lower"},
	{Name: "durable.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "durable.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "durable.checkpoint_bytes", Unit: "bytes", Better: "lower"},
	{Name: "durable.recover_s", Unit: "s", Better: "lower"},
	{Name: "data.heap_bytes_per_tuple", Unit: "bytes", Better: "lower"},
	{Name: "go.alloc_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "go.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "layers.residual_pct", Unit: "%", Better: "lower"},
}

const (
	// probeRequests is how many requests the in-process layer probes
	// replay; clusterProbes replaces it behind a coordinator, where a
	// query costs ~10² peer RPCs; applyProbes is how many deltas the
	// in-process write-path probes apply, each cloning O(|D|) state.
	probeRequests = 300
	clusterProbes = 100
	applyProbes   = 20
)

// layerResult is the traced pass's outcome.
type layerResult struct {
	metrics           map[string]metricValue
	counts            map[string]int
	attempted, failed int
}

// wirePass replays the workload's seeded sequence with one client:
// tracedRequests queries and, on a workload with a writer, tracedDeltas
// applies spread evenly between them. With the tracer on, every request
// is a root span that peer RPCs attach to.
func (fx *fixture) wirePass(res *layerResult) (queryUS, applyUS []float64, refused int) {
	cl := newClient(fx.url)
	defer cl.close()
	seq := fx.mix.seqs[0]
	nq, nd := fx.spec.tracedRequests, fx.spec.tracedDeltas
	every := 0
	if fx.stream != nil && nd > 0 {
		every = nq / nd
	}
	traced := fx.tr.on.Load()
	for i := 0; i < nq; i++ {
		r := seq[(fx.cursor[0]+i)%len(seq)]
		res.attempted++
		id := -1
		if traced {
			id = fx.tr.startRoot("wire.query", i)
		}
		a, err := cl.query(r)
		if traced {
			fx.tr.end(id)
		}
		if err != nil {
			res.failed++
			if a.status == http.StatusServiceUnavailable || a.status == http.StatusUnprocessableEntity {
				refused++
			}
			fmt.Printf("traced pass, request %d: %v\n", i, err)
		} else {
			queryUS = append(queryUS, a.micros)
		}
		if every > 0 && (i+1)%every == 0 {
			res.attempted++
			if traced {
				id = fx.tr.startRoot("wire.apply", i)
			}
			micros, err := cl.apply(fx.stream.Next())
			if traced {
				fx.tr.end(id)
			}
			if err != nil {
				res.failed++
				fmt.Printf("traced pass, delta after request %d: %v\n", i, err)
			} else {
				applyUS = append(applyUS, micros)
			}
		}
	}
	return queryUS, applyUS, refused
}

// recordingSource wraps a plan.Source and remembers every key each
// fetch step probed, so the index layer can be timed alone over
// exactly the key set the plan used.
type recordingSource struct {
	src  plan.Source
	keys map[string]*fetchedKeys
}

type fetchedKeys struct {
	c    access.Constraint
	keys [][]byte
}

type recordingFetcher struct {
	f   plan.Fetcher
	rec *fetchedKeys
}

func (s *recordingSource) FetcherFor(c access.Constraint) plan.Fetcher {
	f := s.src.FetcherFor(c)
	if f == nil {
		return nil
	}
	rec := s.keys[c.String()]
	if rec == nil {
		rec = &fetchedKeys{c: c}
		s.keys[c.String()] = rec
	}
	return recordingFetcher{f, rec}
}

func (f recordingFetcher) FetchBytes(k []byte) index.Bucket {
	// k is the executor's scratch buffer: copy it.
	f.rec.keys = append(f.rec.keys, append([]byte(nil), k...))
	return f.f.FetchBytes(k)
}

// partitions rebuilds, from the reference instance, the k per-shard
// indexed instances a K-way engine holds, with the engine's own
// placement function — the parts index.MergeBuckets merges.
func partitions(inst *data.Instance, ds dataset, k int) ([]*access.Indexed, error) {
	parts := make([]*data.Instance, k)
	for i := range parts {
		parts[i] = data.NewInstance(ds.schema)
	}
	for _, rs := range ds.schema.Relations() {
		pos, err := rs.Positions(shard.DefaultPartitionKey(rs, ds.access))
		if err != nil {
			return nil, err
		}
		rel := inst.Relation(rs.Name)
		var row data.Tuple
		var key []byte
		for ri := 0; ri < rel.Len(); ri++ {
			row = rel.AppendRow(row[:0], ri)
			key = rel.AppendKeyAt(key[:0], ri, pos)
			if _, err := parts[shard.ShardOf(key, k)].Relation(rs.Name).Insert(row); err != nil {
				return nil, err
			}
		}
	}
	out := make([]*access.Indexed, k)
	for i, p := range parts {
		ix, _, err := access.BuildIndexed(ds.access, p)
		if err != nil {
			return nil, err
		}
		out[i] = ix
	}
	return out, nil
}

// tracedPass takes the per-layer account. It is separate from the
// timed run: one client, fixed request counts, the tracer on. First the
// sequence is replayed untraced (the base for trace.overhead_pct and
// the window the run counters are read over), then traced, then each
// layer is called in-process on the same requests with a span around
// the call. Spans go to <outDir>/trace-<workload>.jsonl.
func (fx *fixture) tracedPass(outDir string) (*layerResult, error) {
	res := &layerResult{metrics: map[string]metricValue{}, counts: map[string]int{}}
	vals := map[string]float64{}
	ctx := context.Background()
	ref, err := fx.reference()
	if err != nil {
		return nil, err
	}

	// Untraced replay, with the run counters read at its boundaries.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := fx.engine.CacheStats()
	plainQ, plainA, refused := fx.wirePass(res)
	c1 := fx.engine.CacheStats()
	runtime.ReadMemStats(&m1)
	ops := float64(max(len(plainQ)+len(plainA), 1))
	vals["server.refused"] = float64(refused)
	if lookups := (c1.Hits - c0.Hits) + (c1.Misses - c0.Misses); lookups > 0 {
		vals["core.plan_cache_hit_ratio"] = float64(c1.Hits-c0.Hits) / float64(lookups)
	}
	vals["go.alloc_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / ops
	vals["go.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / ops
	vals["go.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	vals["wire.query_p50_us"] = median(plainQ)
	vals["wire.apply_p50_us"] = median(plainA)
	res.counts["wire.query_p50_us"], res.counts["wire.apply_p50_us"] = len(plainQ), len(plainA)

	// Traced replay of the same requests.
	fx.tr.on.Store(true)
	tracedQ, _, _ := fx.wirePass(res)
	if base := vals["wire.query_p50_us"]; base > 0 {
		vals["trace.overhead_pct"] = (median(tracedQ) - base) / base * 100
	}
	wireSpans := fx.tr.snapshot()

	// In-process probes, one span per call. The peer-RPC instruments are
	// switched back on only around the coordinator's own query, so no
	// other probe pays for them.
	fx.tr.on.Store(false)
	missEng, err := core.New(fx.data.schema, fx.data.access, core.Options{PlanCache: -1})
	if err != nil {
		return nil, err
	}
	var parts []*access.Indexed
	if fx.spec.k > 1 {
		if parts, err = partitions(ref.Instance(), fx.data, fx.spec.k); err != nil {
			return nil, err
		}
	}
	var fetchKeys, rows, fetchedOverBound, bytesPerQuery []float64
	seq := fx.mix.seqs[0]
	probes := probeRequests
	if fx.coord != nil {
		probes = clusterProbes
	}
	probes = min(probes, fx.spec.tracedRequests)
	for i := 0; i < probes; i++ {
		tr := fx.tr
		// The whole handler runs on one request and the layers inside it
		// on another the plan cache has not seen either, so ad-hoc text
		// misses the cache in both, as it does on the wire.
		whole := seq[(fx.cursor[0]+i)%len(seq)]
		tr.timed("server.handle", i, func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(whole.body))
			fx.srv.ServeHTTP(httptest.NewRecorder(), req)
		})
		r := seq[(fx.cursor[0]+fx.spec.tracedRequests+i)%len(seq)]
		q := r.query
		if q == nil {
			tr.timed("parser.parse", i, func() { q, err = fx.cqOf(r) })
			if err != nil {
				return nil, fmt.Errorf("probe %d: %w", i, err)
			}
		}
		tr.timed("cq.canonical_key", i, func() { _ = q.CanonicalKey() })
		var qres *core.Result
		tr.timed("core.query", i, func() { qres, err = ref.Query(ctx, q) })
		if err != nil {
			return nil, fmt.Errorf("probe %d: core query: %w", i, err)
		}
		var p *plan.Plan
		var bound plan.Bound
		// The query above left the plan cached, so this lookup hits.
		tr.timed("core.plan_hit", i, func() { p, bound, err = ref.Plan(q) })
		if err != nil {
			return nil, fmt.Errorf("probe %d: plan: %w", i, err)
		}
		tr.timed("core.plan_miss", i, func() { _, _, err = missEng.Plan(q) })
		if err != nil {
			return nil, fmt.Errorf("probe %d: uncached plan: %w", i, err)
		}
		ix := ref.Indexed()
		var table *plan.Table
		var stats *plan.ExecStats
		tr.timed("plan.exec", i, func() { table, stats, err = plan.ExecuteSource(ctx, p, plan.NewSource(ix), plan.ExecOptions{}) })
		if err != nil {
			return nil, fmt.Errorf("probe %d: plan execution: %w", i, err)
		}
		fetchKeys = append(fetchKeys, float64(stats.FetchKeys))
		rows = append(rows, float64(table.Len()))
		if bound.Fetched > 0 {
			fetchedOverBound = append(fetchedOverBound, float64(stats.Fetched)/float64(bound.Fetched))
		}
		rec := &recordingSource{src: plan.NewSource(ix), keys: map[string]*fetchedKeys{}}
		if _, _, err = plan.ExecuteSource(ctx, p, rec, plan.ExecOptions{}); err != nil {
			return nil, fmt.Errorf("probe %d: recording execution: %w", i, err)
		}
		fx.probeIndex(i, rec, ix, parts)
		var buf bytes.Buffer
		tr.timed("ndjson.write", i, func() { err = ndjson.Write(&buf, qres, nil) })
		if err != nil {
			return nil, fmt.Errorf("probe %d: ndjson: %w", i, err)
		}
		bytesPerQuery = append(bytesPerQuery, float64(buf.Len()))
		if fx.sharded != nil {
			tr.timed("shard.query", i, func() { _, err = fx.sharded.Query(ctx, q) })
			if err != nil {
				return nil, fmt.Errorf("probe %d: shard query: %w", i, err)
			}
		}
		if fx.coord != nil {
			tr.on.Store(true)
			id := tr.startRoot("cluster.query", i)
			_, err = fx.coord.Query(ctx, q)
			tr.end(id)
			tr.on.Store(false)
			if err != nil {
				return nil, fmt.Errorf("probe %d: cluster query: %w", i, err)
			}
		}
	}
	if fx.stream != nil {
		if err := fx.probeWrites(ref, vals); err != nil {
			return nil, err
		}
	}

	spans := fx.tr.snapshot()
	med := func(metric, spanName string) {
		xs := perOpMicros(spans, spanName)
		vals[metric] = median(xs)
		res.counts[metric] = len(xs)
	}
	med("server.handle_us", "server.handle")
	med("parser.parse_us", "parser.parse")
	med("cq.canonical_key_us", "cq.canonical_key")
	med("core.plan_miss_us", "core.plan_miss")
	med("core.plan_hit_us", "core.plan_hit")
	med("core.query_us", "core.query")
	med("plan.exec_us", "plan.exec")
	med("index.merge_us", "index.merge")
	med("ndjson.write_us", "ndjson.write")
	med("shard.query_us", "shard.query")
	med("shard.apply_us", "shard.apply")
	med("cluster.query_us", "cluster.query")
	med("cluster.node_handle_us", "cluster.node_handle")
	med("live.stage_us", "live.stage")
	med("live.violations_us", "live.violations")
	med("live.commit_us", "live.commit")
	med("durable.wal_append_us", "durable.wal_append")
	vals["index.fetch_ns"] = median(perOpMicros(spans, "index.fetch")) * 1e3
	vals["plan.fetch_keys_per_query"] = mean(fetchKeys)
	vals["plan.rows_per_query"] = mean(rows)
	vals["plan.fetched_over_bound"] = mean(fetchedOverBound)
	vals["ndjson.bytes_per_query"] = mean(bytesPerQuery)
	if r := vals["plan.rows_per_query"]; r > 0 {
		vals["ndjson.ns_per_row"] = vals["ndjson.write_us"] * 1e3 / r
	}
	vals["server.http_overhead_us"] = vals["wire.query_p50_us"] - vals["server.handle_us"]
	if fx.sharded != nil {
		vals["shard.overhead_us"] = vals["shard.query_us"] - vals["core.query_us"]
	}
	vals["data.heap_bytes_per_tuple"] = fx.heapMB * (1 << 20) / float64(fx.tuples)
	if fx.rpc != nil {
		fx.clusterAccount(wireSpans, spans, vals, res.counts)
	}
	// What the reported layers leave unexplained of the wire median:
	// planning is weighted by the cache hit ratio the run observed.
	if wire := vals["wire.query_p50_us"]; wire > 0 {
		hit := vals["core.plan_cache_hit_ratio"]
		planUS := hit*vals["core.plan_hit_us"] + (1-hit)*vals["core.plan_miss_us"]
		explained := vals["server.http_overhead_us"] + planUS + vals["plan.exec_us"] + vals["ndjson.write_us"]
		vals["layers.residual_pct"] = (wire - explained) / wire * 100
	}
	for _, d := range perLayer {
		res.metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	return res, writeJSONL(filepath.Join(outDir, "trace-"+fx.spec.Name+".jsonl"), spans)
}

// probeIndex times the index layer alone over the keys one plan
// execution probed: Index.FetchBytes for every key, and MergeBuckets
// for every key of a constraint the K-way placement scatters whose
// group really straddles shards.
func (fx *fixture) probeIndex(request int, rec *recordingSource, ix *access.Indexed, parts []*access.Indexed) {
	// An index probe is ~50 ns, so one span covers every key several
	// times over and N carries the probe count.
	const sweeps = 8
	probes := 0
	id := fx.tr.start("index.fetch", -1, request)
	for s := 0; s < sweeps; s++ {
		for _, fk := range rec.keys {
			idx := ix.IndexFor(fk.c)
			for _, k := range fk.keys {
				_ = idx.FetchBytes(k)
				probes++
			}
		}
	}
	fx.tr.endN(id, probes)
	if parts == nil {
		return
	}
	var merges [][]index.Bucket
	for _, fk := range rec.keys {
		rs, _ := fx.data.schema.Relation(fk.c.Rel)
		if shard.AttrsEqual(shard.DefaultPartitionKey(rs, fx.data.access), fk.c.X) {
			continue // routed: one shard holds the whole group
		}
		for _, k := range fk.keys {
			var nonEmpty []index.Bucket
			for _, part := range parts {
				if b := part.IndexFor(fk.c).FetchBytes(k); b.Len() > 0 {
					nonEmpty = append(nonEmpty, b)
				}
			}
			if len(nonEmpty) > 1 {
				merges = append(merges, nonEmpty)
			}
		}
	}
	// The span is the query's total merge time; a query whose scattered
	// groups each live on one shard merges nothing and records 0.
	id = fx.tr.start("index.merge", -1, request)
	for _, m := range merges {
		_ = index.MergeBuckets(m)
	}
	fx.tr.end(id)
}

// clusterAccount derives the cluster layer's numbers from the spans the
// counting transport and the node-handler wrappers recorded.
func (fx *fixture) clusterAccount(wireSpans, spans []span, vals map[string]float64, counts map[string]int) {
	wireQueries, wireRPCs := 0, 0
	for _, s := range wireSpans {
		switch s.Name {
		case "wire.query":
			wireQueries++
		case "cluster.rpc":
			wireRPCs++
		}
	}
	if wireQueries > 0 {
		vals["cluster.rpcs_per_query"] = float64(wireRPCs) / float64(wireQueries)
	}
	rtt := perOpMicros(spans, "cluster.rpc")
	vals["cluster.rpc_rtt_us"] = median(rtt)
	counts["cluster.rpc_rtt_us"] = len(rtt)
	if calls := fx.rpc.calls.Load(); calls > 0 {
		vals["cluster.rpc_req_bytes"] = float64(fx.rpc.reqBytes.Load()) / float64(calls)
		vals["cluster.rpc_resp_bytes"] = float64(fx.rpc.respBytes.Load()) / float64(calls)
	}
	vals["cluster.rpc_failed"] = float64(fx.rpc.failed.Load())
	// The coordinator's own time per in-process query: the query span
	// minus the union of the RPC intervals under it.
	var self []float64
	for i, st := range selfTimes(spans) {
		if spans[i].Name == "cluster.query" {
			self = append(self, float64(st)/1e3)
		}
	}
	vals["cluster.coord_self_us"] = median(self)
	if q := vals["cluster.query_us"]; q > 0 {
		// Negative when RPCs overlap (a scatter's K calls run in
		// parallel), so rpcs × rtt overstates the time they block.
		explained := vals["cluster.rpcs_per_query"]*vals["cluster.rpc_rtt_us"] + vals["cluster.coord_self_us"]
		vals["cluster.residual_pct"] = (q - explained) / q * 100
	}
}

// probeWrites times the write path's layers in-process on the next
// applyProbes deltas of the stream: the sharded engine's Apply whole,
// then live's stage / validate / commit on the reference snapshot, then
// the WAL append (with its fsync) on a store of its own; and, once,
// checkpoint and recovery of the served engine's directory.
func (fx *fixture) probeWrites(ref *core.Engine, vals map[string]float64) error {
	ctx := context.Background()
	tr := fx.tr
	walDir, err := os.MkdirTemp(filepath.Dir(fx.dataDir), "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	store, err := durable.Open(walDir, nil)
	if err != nil {
		return err
	}
	defer store.Close()
	ix := ref.Indexed()
	var ops, userBytes float64
	for i := 0; i < applyProbes; i++ {
		d := fx.stream.Next()
		ops += float64(d.Len())
		var tsv bytes.Buffer
		if err := live.WriteDeltaTSV(&tsv, d); err != nil {
			return err
		}
		userBytes += float64(tsv.Len())
		tr.timed("shard.apply", i, func() { _, err = fx.sharded.Apply(ctx, d) })
		if err != nil {
			return fmt.Errorf("write probe %d: shard apply: %w", i, err)
		}
		var staged *live.Staged
		tr.timed("live.stage", i, func() { staged, err = live.Stage(ctx, d, ix) })
		if err != nil {
			return fmt.Errorf("write probe %d: stage: %w", i, err)
		}
		var viols []access.Violation
		tr.timed("live.violations", i, func() { viols = staged.Violations(staged.OldSize(), staged.Size()) })
		if len(viols) > 0 {
			return fmt.Errorf("write probe %d: the stream violated a bound: %v", i, viols[0])
		}
		var committed *live.Result
		tr.timed("live.commit", i, func() { committed, err = staged.Commit() })
		if err != nil {
			return fmt.Errorf("write probe %d: commit: %w", i, err)
		}
		ix = committed.Indexed // the next delta retires tuples this one inserted
		tr.timed("durable.wal_append", i, func() { err = store.AppendDelta(uint64(i+1), d) })
		if err != nil {
			return fmt.Errorf("write probe %d: WAL append: %w", i, err)
		}
	}
	vals["live.delta_ops"] = ops / applyProbes
	if walBytes, err := dirSize(walDir); err == nil && userBytes > 0 {
		vals["durable.wal_bytes_per_user_byte"] = float64(walBytes) / userBytes
	}

	start := time.Now()
	if _, err := fx.sharded.Checkpoint(ctx); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	vals["durable.checkpoint_s"] = time.Since(start).Seconds()
	if n, err := dirSize(fx.dataDir); err == nil {
		vals["durable.checkpoint_bytes"] = float64(n)
	}
	// Recovery reopens the directory, so the served engine lets go of it
	// first; nothing is served after this point.
	if err := fx.sharded.CloseDurable(); err != nil {
		return err
	}
	again, err := shard.New(fx.data.schema, fx.data.access, shard.Options{Shards: fx.spec.k})
	if err != nil {
		return err
	}
	start = time.Now()
	restored, err := again.Durable(ctx, fx.dataDir, nil)
	vals["durable.recover_s"] = time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer again.CloseDurable()
	if !restored || again.Stats().Size != fx.sharded.Stats().Size {
		return fmt.Errorf("recovery restored %d tuples, the engine holds %d", again.Stats().Size, fx.sharded.Stats().Size)
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
