// Command benchmark is the repository's serving benchmark: five
// workloads driven through the public HTTP surfaces on loopback TCP,
// ten end-to-end metrics measured with tracing off, and a per-layer
// account taken from outside by a separate traced pass. README.md in
// this directory is the manual.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// Trace modes: the driver asks for one pass per invocation; by default
// a run makes both.
const (
	traceOff  = 0 // timed run only: the end-to-end metrics
	traceOn   = 1 // traced pass only: the per-layer metrics
	traceBoth = 2
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	repeat   int
	compare  bool
	outDir   string
	jsonOut  string
	// The rest has no flag: only the package's tests change it.
	scale scale
	// setupReps is how many times a timed run sets the workload up;
	// setup_s is the median and the last fixture serves the run.
	setupReps int
	// warm is untimed load before the timed window, so the clients'
	// connections, the scheduler and the GC pacer are in steady state.
	warm time.Duration
}

func main() {
	cfg := config{scale: fullScale, setupReps: 3, warm: time.Second}
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (default: all five, one after another)")
	flag.Int64Var(&cfg.seed, "seed", 11, "seed of every generated input: data, requests, delta stream")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the timed window per workload")
	flag.IntVar(&cfg.trace, "trace", traceBoth, "0: timed run only; 1: traced pass only; 2: both")
	flag.IntVar(&cfg.repeat, "repeat", 0, "run N times on seeds seed..seed+N-1 and report median, quartiles and spread per end-to-end metric")
	flag.BoolVar(&cfg.compare, "compare", false, "compare two -repeat outputs: benchmark -compare parent.json change.json")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for trace files and the durable engine's data")
	flag.StringVar(&cfg.jsonOut, "json", "", "with -repeat: also write every run's values to this file, for -compare")
	flag.Parse()
	if err := run(cfg, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(cfg config, args []string) error {
	if cfg.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two files: parent.json change.json")
		}
		return compareFiles(args[0], args[1])
	}
	if cfg.seconds < 1 || cfg.trace < traceOff || cfg.trace > traceBoth {
		return fmt.Errorf("-seconds must be at least 1 and -trace one of 0, 1, 2")
	}
	specs := workloads
	if cfg.workload != "" {
		spec, ok := findWorkload(cfg.workload)
		if !ok {
			return fmt.Errorf("no workload named %q", cfg.workload)
		}
		specs = []workloadSpec{spec}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if cfg.repeat > 0 {
		return repeatRuns(cfg, specs)
	}
	for _, spec := range specs {
		res, err := runWorkload(spec, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		if cfg.workload == "" {
			res.Workload = spec.Name
		}
		if cfg.trace == traceOff {
			// The last line of a timed run carries exactly the metrics
			// BENCHMARK.json gates; the report above has them all.
			for name := range res.Metrics {
				if ungated[name] {
					delete(res.Metrics, name)
				}
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// runWorkload sets one workload up, verifies every distinct answer,
// and makes the passes cfg.trace asks for. The result carries the
// end-to-end metrics of the timed run, the per-layer metrics of the
// traced pass, or both.
func runWorkload(spec workloadSpec, cfg config) (*result, error) {
	reps := cfg.setupReps
	if cfg.trace == traceOn {
		reps = 1 // setup_s is not reported
	}
	fx, err := setUpMedian(spec, cfg, reps)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	if err := fx.verify(); err != nil {
		return nil, fmt.Errorf("wrong answer before timing: %w", err)
	}
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	if cfg.trace != traceOn {
		res = fx.measure(cfg.warm, time.Duration(cfg.seconds)*time.Second)
		printEndToEnd(spec, res)
	}
	if cfg.trace != traceOff {
		layers, err := fx.tracedPass(cfg.outDir)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		printLayers(spec, layers)
		res.Correct = res.Correct && layers.failed == 0
		res.Attempted += layers.attempted
		res.Failed += layers.failed
		for name, v := range layers.metrics {
			res.Metrics[name] = v
		}
	}
	return res, nil
}
