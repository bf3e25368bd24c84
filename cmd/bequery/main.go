// Command bequery is the interactive front end to the bounded-evaluation
// engine: it parses a document declaring a relational schema, an access
// schema, and queries, then checks/plans/explains/runs them.
//
// Usage:
//
//	bequery -file doc.bq [-data dir] -query Q0 [-mode explain|check|plan|run|specialize]
//	bequery -demo accidents -query Q0 -mode run [-save dir]
//	bequery -demo accidents -query Q0 -mode run -budget 100 -timeout 2s -fallback refuse
//	bequery -demo accidents -apply delta.tsv -query Q0 -mode run -stream
//	bequery -demo accidents -data-dir /var/lib/beserve -query Q0 -mode run
//	bequery -demo accidents -wal-dump /var/lib/beserve
//
// The run mode serves queries through the unified Engine.Query API:
// -budget refuses a query before execution when its static access bound
// exceeds the budget (admission control), -timeout bounds the request
// wall-clock, -fallback picks the strategy for queries that are not
// boundedly evaluable (scan | refuse | envelope), and -stream switches
// the output to NDJSON, one row object per line as the engine produces it
// (core.WithStream).
//
// -apply ingests a delta TSV (one op per line: "+|-<TAB>Relation<TAB>
// values...", see internal/live) through Engine.Apply before the query
// runs: indices are maintained incrementally under snapshot isolation,
// and a batch that would violate the access schema is rejected with the
// violation list.
//
// The engine is always an internal/shard fleet of -shards K in-process
// partitions (K = 1, the default, is one partition holding everything):
// indexed fetches aligned with a relation's partition key route to one
// shard, everything else scatters and merges, and both results and
// update verdicts are identical for every K.
//
// -data-dir attaches a durability directory (internal/durable, the same
// layout beserve writes): a directory already holding state is recovered
// — checkpoint plus WAL replay — and the initial -demo/-data load is
// skipped, so bequery can query exactly what a crashed server had
// committed; -apply batches are WAL-logged before they become visible.
//
// -profile traces the request and prints an EXPLAIN ANALYZE span tree —
// one {"profile": ...} JSON line after the answer (the stream's last
// line with -stream, the same wire shape beserve's "profile": true
// speaks) — covering planning, every plan step (its fetch), dedup, and the
// per-shard route/scatter traffic under -shards. With -apply it also
// profiles the update (stage/validate/commit, WAL append). -slow-query-ms
// N logs a structured JSON line to stderr when the request exceeds N ms.
//
// -wal-dump renders a durability directory's write-ahead log human-
// readably (one header line per record plus the delta TSV body) and
// exits; the schema still comes from -file or -demo. A torn tail — the
// signature of a crash mid-append — is reported, not an error.
//
// With -demo, a built-in workload (accidents | social) supplies schema,
// constraints, data and the named query, so no file is needed. With -data,
// a directory of <Relation>.tsv files (see internal/load) provides the
// instance for a -file document; -save exports the demo instance in the
// same format.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/durable"
	"repro/internal/eval"
	"repro/internal/live"
	"repro/internal/load"
	"repro/internal/ndjson"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/workload"
)

// cliConfig collects every flag; one value per invocation.
type cliConfig struct {
	file       string
	dataDir    string
	durableDir string
	walDump    string
	saveDir    string
	demo       string
	apply      string
	query      string
	mode       string
	k          int
	days       int
	people     int
	shards     int
	budget     int64
	timeout    time.Duration
	fallback   string
	stream     bool
	profile    bool
	slowMS     int
}

func main() {
	var cfg cliConfig
	flag.StringVar(&cfg.file, "file", "", "input document (relations, constraints, queries)")
	flag.StringVar(&cfg.dataDir, "data", "", "directory of <Relation>.tsv files to load with -file")
	flag.StringVar(&cfg.durableDir, "data-dir", "", "durability directory (WAL + checkpoints); existing state is recovered and the initial load skipped")
	flag.StringVar(&cfg.walDump, "wal-dump", "", "render the WAL in this durability directory and exit (schema from -file or -demo)")
	flag.StringVar(&cfg.saveDir, "save", "", "export the loaded instance as TSV into this directory")
	flag.StringVar(&cfg.demo, "demo", "", "built-in workload: accidents | social")
	flag.StringVar(&cfg.apply, "apply", "", "delta TSV file to apply through Engine.Apply before operating")
	flag.StringVar(&cfg.query, "query", "", "query name to operate on")
	flag.StringVar(&cfg.mode, "mode", "explain", "explain | check | plan | run | baseline | specialize")
	flag.IntVar(&cfg.k, "k", 2, "parameter budget for specialize")
	flag.IntVar(&cfg.days, "days", 20, "accidents demo: days of data")
	flag.IntVar(&cfg.people, "people", 2000, "social demo: people")
	flag.IntVar(&cfg.shards, "shards", 1, "hash-partition the data across K in-process partitions (internal/shard); 1 keeps it whole")
	flag.Int64Var(&cfg.budget, "budget", -1, "run: refuse unless the static access bound is ≤ this many tuples (-1 = no budget)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "run: per-request execution deadline (0 = none)")
	flag.StringVar(&cfg.fallback, "fallback", "scan", "run: strategy for non-bounded queries: scan | refuse | envelope")
	flag.BoolVar(&cfg.stream, "stream", false, "run: stream rows as NDJSON while the plan produces them")
	flag.BoolVar(&cfg.profile, "profile", false, "run: print an EXPLAIN ANALYZE span tree ({\"profile\": ...}) after the answer")
	flag.IntVar(&cfg.slowMS, "slow-query-ms", 0, "run: log a structured slow-query line to stderr when the request exceeds this many milliseconds (0 = off)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bequery:", err)
		os.Exit(1)
	}
}

func run(cfg cliConfig) error {
	if cfg.walDump != "" {
		// Inspection only: the document/demo supplies the schema the WAL
		// records are decoded under; no engine state (and no durable
		// attach) is needed, so skip -data-dir for the schema-only setup.
		schemaOnly := cfg
		schemaOnly.durableDir = ""
		_, sch, _, _, _, err := setup(schemaOnly)
		if err != nil {
			return err
		}
		return durable.DumpWAL(os.Stdout, cfg.walDump, sch)
	}
	eng, sch, queries, params, restored, err := setup(cfg)
	if err != nil {
		return err
	}
	defer eng.CloseDurable()
	if restored {
		fmt.Printf("recovered committed state from %s (version %d, |D| %d)\n",
			cfg.durableDir, eng.Stats().Version, eng.Stats().Size)
	}
	if cfg.dataDir != "" && !restored {
		d, err := load.LoadInstance(sch, cfg.dataDir)
		if err != nil {
			return err
		}
		if err := eng.Load(d); err != nil {
			return err
		}
	}
	if cfg.apply != "" {
		if eng.Instance() == nil {
			return fmt.Errorf("-apply needs an instance (use -demo or -data)")
		}
		delta, err := live.LoadDelta(cfg.apply, sch)
		if err != nil {
			return err
		}
		// -profile traces the apply too: stage/validate/commit and the
		// WAL append get their own span tree, printed before the query's.
		actx := context.Background()
		var atr *obs.Trace
		if cfg.profile {
			atr = obs.NewTrace("apply")
			actx = obs.NewContext(actx, atr)
		}
		res, err := eng.Apply(actx, delta)
		aroot := atr.Finish()
		if err != nil {
			return err
		}
		// Stats().Size reads the snapshot header; Instance().Size() on a
		// sharded engine would materialize the whole union just to count.
		fmt.Printf("applied %s: +%d -%d tuples, |D| now %d\n",
			cfg.apply, res.Inserted, res.Deleted, eng.Stats().Size)
		if err := ndjson.WriteProfile(os.Stdout, aroot, nil); err != nil {
			return err
		}
	}
	if cfg.saveDir != "" {
		if eng.Instance() == nil {
			return fmt.Errorf("-save needs an instance (use -demo or -data)")
		}
		if err := load.SaveInstance(eng.Instance(), cfg.saveDir); err != nil {
			return err
		}
		fmt.Printf("saved %d tuples to %s\n", eng.Instance().Size(), cfg.saveDir)
	}
	if cfg.query == "" {
		fmt.Println("available queries:")
		for _, name := range queryNames(queries) {
			fmt.Println("  " + name)
		}
		return nil
	}
	q, ok := queries[cfg.query]
	if !ok {
		return fmt.Errorf("no query named %q", cfg.query)
	}
	switch cfg.mode {
	case "explain":
		out, err := eng.Explain(q, params[cfg.query])
		if err != nil {
			return err
		}
		fmt.Print(out)
	case "check":
		res, err := eng.IsCovered(q)
		if err != nil {
			return err
		}
		fmt.Print(res.Explain())
	case "plan":
		p, b, err := eng.Plan(q)
		if err != nil {
			return err
		}
		fmt.Println(p)
		fmt.Println(b)
	case "run":
		opts, err := queryOptions(cfg)
		if err != nil {
			return err
		}
		// A trace rides the request when -profile or -slow-query-ms asks
		// for one; otherwise the engine's record sites stay on their
		// zero-cost disabled path.
		slow := obs.NewSlowLog(os.Stderr, time.Duration(cfg.slowMS)*time.Millisecond)
		ctx := context.Background()
		var tr *obs.Trace
		if cfg.profile || slow.Enabled() {
			tr = obs.NewTrace("query")
			ctx = obs.NewContext(ctx, tr)
		}
		res, err := eng.Query(ctx, q, opts...)
		var be *core.BudgetError
		if errors.As(err, &be) {
			// Admission control working as intended: report the refusal
			// without touching any data.
			fmt.Println("refused:", be)
			return nil
		}
		if err != nil {
			return err
		}
		if cfg.stream {
			// NDJSON: one row object per line on stdout as the engine
			// produces it; the summary goes to stderr so pipelines stay
			// machine-readable. The profile trailer is the stream's last
			// line — the same wire shape the server speaks.
			if err := streamNDJSON(os.Stdout, res); err != nil {
				return err
			}
			root := tr.Finish()
			if cfg.profile {
				if err := ndjson.WriteProfile(os.Stdout, root, nil); err != nil {
					return err
				}
			}
			recordSlow(slow, cfg.query, q, res, root)
			fmt.Fprintf(os.Stderr, "answered via %s; fetched=%d scanned=%d cached=%v in %v\n",
				res.Mode, res.Stats.Fetched, res.Stats.Scanned,
				res.Stats.CacheHit, res.Stats.Elapsed.Round(time.Microsecond))
			return nil
		}
		root := tr.Finish()
		fmt.Printf("answered via %s; fetched=%d scanned=%d rows=%d cached=%v in %v\n",
			res.Mode, res.Stats.Fetched, res.Stats.Scanned, len(res.Rows),
			res.Stats.CacheHit, res.Stats.Elapsed.Round(time.Microsecond))
		fmt.Println("  # " + strings.Join(res.Columns, "\t"))
		n := 0
		for row := range res.Seq() {
			if n == 20 {
				fmt.Printf("... %d more\n", len(res.Rows)-20)
				break
			}
			n++
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = v.String()
			}
			fmt.Println("  " + strings.Join(cells, "\t"))
		}
		if cfg.profile {
			if err := ndjson.WriteProfile(os.Stdout, root, nil); err != nil {
				return err
			}
		}
		recordSlow(slow, cfg.query, q, res, root)
	case "baseline":
		res, err := eng.Baseline(q, eval.HashJoin)
		if err != nil {
			return err
		}
		fmt.Printf("baseline (hash-join): scanned=%d rows=%d\n", res.Scanned, len(res.Rows))
	case "specialize":
		ps := params[cfg.query]
		if len(ps) == 0 {
			return fmt.Errorf("query %s declares no parameters (use params(...) in the document)", cfg.query)
		}
		res, err := eng.Specialize(q, ps, cfg.k)
		if err != nil {
			return err
		}
		if !res.Found {
			fmt.Println("not specializable:", res.Reason)
			return nil
		}
		fmt.Printf("specializable with %v (minimum=%v, %d subsets tried)\n", res.Params, res.Minimum, res.Tried)
	default:
		return fmt.Errorf("unknown mode %q", cfg.mode)
	}
	return nil
}

// recordSlow feeds one finished request into the slow-query log (a nil
// log makes it a no-op): the same line schema beserve emits, so one jq
// recipe reads both.
func recordSlow(slow *obs.SlowLog, name string, q core.Query, res *core.Result, root *obs.Span) {
	if !slow.Enabled() {
		return
	}
	entry := obs.SlowEntry{
		Query:     name,
		Mode:      res.Mode.String(),
		Fetched:   res.Stats.Fetched,
		Scanned:   res.Stats.Scanned,
		FetchKeys: res.Stats.FetchKeys,
		CacheHit:  res.Stats.CacheHit,
	}
	if ck, ok := q.(interface{ CanonicalKey() string }); ok {
		entry.CacheKey = ck.CanonicalKey()
	}
	if res.Bound != nil {
		entry.Bound = res.Bound.Fetched
	}
	slow.Record(entry, res.Stats.Elapsed, root)
}

// streamNDJSON drains a streamed Result through the shared NDJSON
// encoder (the same one internal/server speaks on the wire). The
// returned error includes a stream cut short by the -timeout deadline —
// run propagates it to the exit code, so a truncated NDJSON pipeline
// never reads as a complete answer.
func streamNDJSON(w io.Writer, res *core.Result) error {
	return ndjson.Write(w, res, nil)
}

// queryOptions assembles the per-request QueryOptions from the CLI flags.
func queryOptions(cfg cliConfig) ([]core.QueryOption, error) {
	var opts []core.QueryOption
	if cfg.budget >= 0 {
		opts = append(opts, core.WithAccessBudget(cfg.budget))
	}
	if cfg.timeout > 0 {
		opts = append(opts, core.WithDeadline(time.Now().Add(cfg.timeout)))
	}
	if cfg.stream {
		opts = append(opts, core.WithStream())
	}
	switch cfg.fallback {
	case "scan":
		opts = append(opts, core.WithFallback(core.FallbackScan))
	case "refuse":
		opts = append(opts, core.WithFallback(core.FallbackRefuse))
	case "envelope":
		opts = append(opts, core.WithFallback(core.FallbackEnvelope))
	default:
		return nil, fmt.Errorf("unknown fallback %q (want scan | refuse | envelope)", cfg.fallback)
	}
	return opts, nil
}

// queryNames returns the query names in sorted order, so listings are
// deterministic across runs (map iteration order is not).
func queryNames(queries map[string]*cq.CQ) []string {
	names := make([]string, 0, len(queries))
	for name := range queries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// newEngine builds the -shards K fleet and wires -data-dir into it:
// recovery if the directory holds state, otherwise just the
// WAL/checkpoint plumbing for -apply batches to come. restored=true
// means the engine is already serving the recovered snapshot and the
// caller must skip its load.
func newEngine(s *schema.Schema, a *access.Schema, cfg cliConfig) (*shard.Engine, bool, error) {
	eng, err := shard.New(s, a, shard.Options{Shards: cfg.shards})
	if err != nil || cfg.durableDir == "" {
		return eng, false, err
	}
	restored, err := eng.Durable(context.Background(), cfg.durableDir, nil)
	return eng, restored, err
}

func setup(cfg cliConfig) (*shard.Engine, *schema.Schema, map[string]*cq.CQ, map[string][]string, bool, error) {
	switch {
	case cfg.file != "":
		raw, err := os.ReadFile(cfg.file)
		if err != nil {
			return nil, nil, nil, nil, false, err
		}
		doc, err := parser.Parse(string(raw))
		if err != nil {
			return nil, nil, nil, nil, false, err
		}
		eng, restored, err := newEngine(doc.Schema, doc.Access, cfg)
		if err != nil {
			return nil, nil, nil, nil, false, err
		}
		// The CLI operates on the document's CQ rules, exactly the
		// catalog beserve serves for the same document; UCQs go through
		// the API (or the server's ad-hoc "text").
		cat := server.CatalogFromDocument(doc)
		return eng, doc.Schema, cat.Queries, cat.Params, restored, nil
	case cfg.demo == "accidents", cfg.demo == "social":
		var dm *workload.Demo
		var err error
		if cfg.demo == "accidents" {
			dm, err = workload.AccidentsDemo(cfg.days)
		} else {
			dm, err = workload.SocialDemo(cfg.people)
		}
		if err != nil {
			return nil, nil, nil, nil, false, err
		}
		eng, restored, err := newEngine(dm.Schema, dm.Access, cfg)
		if err != nil {
			return nil, nil, nil, nil, false, err
		}
		if !restored {
			if err := eng.Load(dm.Instance); err != nil {
				return nil, nil, nil, nil, false, err
			}
		}
		return eng, dm.Schema, dm.Queries, dm.Params, restored, nil
	default:
		return nil, nil, nil, nil, false, fmt.Errorf("provide -file or -demo accidents|social")
	}
}
