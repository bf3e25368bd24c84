// Command bebench regenerates the experiment tables of EXPERIMENTS.md.
//
// Usage:
//
//	bebench                    # run every experiment
//	bebench -exp e1            # one experiment (e1..e17)
//	bebench -exp e14 -clients 8  # network serving at 8 concurrent clients
//	bebench -exp e13 -shards 8   # sharding sweep up to 8 shards
//	bebench -exp e15 -json .     # write BENCH_E15.json next to the tables
//
// -json dir additionally persists each experiment's headline metrics as
// BENCH_<ID>.json — {"experiment","commit","metrics":[{name,value,unit}]}
// — the machine-readable trajectory the repo commits so CI can diff a
// fresh run against the last recorded baseline and flag regressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (e1..e17) or all")
	clients := flag.Int("clients", runtime.GOMAXPROCS(0), "concurrent clients of the e14/e17 serving experiments")
	shards := flag.Int("shards", 8, "max shard count for the e13 sharding sweep")
	jsonDir := flag.String("json", "", "also write BENCH_<ID>.json metric files into this directory")
	flag.Parse()
	if err := run(strings.ToLower(*exp), *clients, *shards, *jsonDir); err != nil {
		fmt.Fprintln(os.Stderr, "bebench:", err)
		os.Exit(1)
	}
}

// shardCounts doubles from 1 up to max; K = 1 is
// always included, so a nonsensical -shards still measures the baseline.
func shardCounts(max int) []int {
	out := []int{1}
	for k := 2; k <= max; k *= 2 {
		out = append(out, k)
	}
	return out
}

// benchRecord is the on-disk shape of one BENCH_<ID>.json file.
type benchRecord struct {
	Experiment string         `json:"experiment"`
	Commit     string         `json:"commit"`
	Metrics    []bench.Metric `json:"metrics"`
}

// gitCommit identifies the working tree for the trajectory record: HEAD,
// with a "-dirty" suffix when the measured tree has uncommitted changes
// (a record taken while preparing a commit names that commit's parent,
// and says so). "unknown" outside a git checkout rather than an error —
// the metrics are still worth writing.
func gitCommit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeJSON persists t's headline metrics as dir/BENCH_<ID>.json.
// Tables without metrics are skipped — no file beats an empty lie.
func writeJSON(dir string, t *bench.Table) error {
	if len(t.Metrics) == 0 {
		return nil
	}
	rec := benchRecord{Experiment: t.ID, Commit: gitCommit(), Metrics: t.Metrics}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+t.ID+".json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bebench: wrote %s\n", path)
	return nil
}

func run(exp string, clients, shards int, jsonDir string) error {
	emit := func(tables ...*bench.Table) error {
		for _, t := range tables {
			fmt.Println(t.Render())
			if jsonDir != "" {
				if err := writeJSON(jsonDir, t); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if exp == "all" {
		tables, err := bench.All(clients)
		if err != nil {
			return err
		}
		return emit(tables...)
	}
	var t *bench.Table
	var err error
	switch exp {
	case "e1":
		t, err = bench.E1ScaleSweep([]int{5, 20, 80, 320})
	case "e2":
		t, err = bench.E2CQPScaling([]int{2, 4, 8, 16, 32, 64})
	case "e3":
		t, err = bench.E3UCQCoverage([]int{3, 4, 5, 6, 7})
	case "e4":
		t, err = bench.E4CoverageRate(200, 700)
	case "e5":
		t, err = bench.E5Speedup([]int{5, 20, 80, 320})
	case "e6":
		t, err = bench.E6GraphPatterns(5000)
	case "e7":
		t, err = bench.E7Envelopes()
	case "e8":
		t, err = bench.E8QSP([]int{2, 4, 6, 8})
	case "e9":
		t, err = bench.E9GeneralConstraints([]int{1 << 8, 1 << 12, 1 << 16, 1 << 20})
	case "e10":
		t, err = bench.E10PaperExamples()
	case "e11":
		t, err = bench.E11Concurrency(10000)
	case "e12":
		t, err = bench.E12LiveUpdates([]int{5, 20, 80, 320}, 30)
	case "e13":
		t, err = bench.E13Sharding(shardCounts(shards), 30)
	case "e14":
		t, err = bench.E14NetworkServing(clients, time.Second)
	case "e15":
		t, err = bench.E15Durability(40, 30)
	case "e16":
		t, err = bench.E16TraceOverhead(40, time.Second)
	case "e17":
		t, err = bench.E17DistributedServing(clients, time.Second, []int{2, 4})
	default:
		return fmt.Errorf("unknown experiment %q (want e1..e17 or all)", exp)
	}
	if err != nil {
		return err
	}
	return emit(t)
}
