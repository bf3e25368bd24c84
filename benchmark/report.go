package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// printEndToEnd prints the timed run's metrics, one per line, each
// with its unit, the sample count behind a timing, and its bound.
func printEndToEnd(spec workloadSpec, res *result) {
	fmt.Printf("\n%s — end to end (tracing off, %d query clients, closed loop; attempted %d, failed %d)\n",
		spec.Name, numClients, res.Attempted, res.Failed)
	if spec.writer {
		fmt.Printf("  one writer beside them, a delta every %v\n", spec.writeEvery)
	}
	if spec.durable {
		fmt.Println("  flush policy: default — the WAL is fsynced before every snapshot swap")
	}
	for _, d := range endToEnd {
		m, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		note := fmt.Sprintf("may worsen by %.2f", d.Bound)
		if d.Bound == 0 {
			note = "any rise fails"
		}
		if n, timed := res.samples[d.Name]; timed {
			note += fmt.Sprintf("; n=%d carries up to p%g", n, supportedTail(n))
		}
		fmt.Printf("  %-22s %14.3f %-7s %s\n", d.Name, m.Value, m.Unit, note)
	}
}

// printLayers prints the traced pass's per-layer table.
func printLayers(spec workloadSpec, l *layerResult) {
	fmt.Printf("\n%s — per layer (traced pass, 1 client; medians; attempted %d, failed %d)\n",
		spec.Name, l.attempted, l.failed)
	for _, d := range perLayer {
		m := l.metrics[d.Name]
		count := ""
		if n := l.counts[d.Name]; n > 0 {
			count = fmt.Sprintf("n=%d", n)
		}
		fmt.Printf("  %-32s %14.3f %-6s %s\n", d.Name, m.Value, m.Unit, count)
	}
}

// repeatFile is what -repeat -json writes and -compare reads: every
// run's value of every end-to-end metric, per workload.
type repeatFile struct {
	Seed      int64                           `json:"seed"`
	Seconds   int                             `json:"seconds"`
	Runs      int                             `json:"runs"`
	Workloads map[string]map[string][]float64 `json:"workloads"`
}

// repeatRuns makes cfg.repeat timed runs of each workload, run i on
// seed+i (the acceptance procedure varies the seed, so the spread here
// includes what a different request mix does), and reports median,
// quartiles and spread per end-to-end metric. It fails when a spread
// exceeds the metric's bound; setup_s is reported but does not fail,
// as in that procedure.
func repeatRuns(cfg config, specs []workloadSpec) error {
	if cfg.repeat < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs to have a spread")
	}
	out := repeatFile{Seed: cfg.seed, Seconds: cfg.seconds, Runs: cfg.repeat, Workloads: map[string]map[string][]float64{}}
	var loose []string
	for _, spec := range specs {
		values := map[string][]float64{}
		for i := 0; i < cfg.repeat; i++ {
			c := cfg
			c.seed, c.trace = cfg.seed+int64(i), traceOff
			res, err := runWorkload(spec, c)
			if err != nil {
				return fmt.Errorf("%s, run %d: %w", spec.Name, i, err)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		out.Workloads[spec.Name] = values
		fmt.Printf("\n%s — %d runs on seeds %d..%d\n", spec.Name, cfg.repeat, cfg.seed, cfg.seed+int64(cfg.repeat)-1)
		fmt.Printf("  %-22s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, d := range endToEnd {
			xs, ok := values[d.Name]
			if !ok {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			sp := spread(xs)
			verdict := ""
			if tooLoose(d, xs) {
				verdict = "  SPREAD OVER BOUND"
				if d.Name != "setup_s" {
					loose = append(loose, spec.Name+"/"+d.Name)
				}
			}
			fmt.Printf("  %-22s %12.3f %12.3f %12.3f %8.4f %6.2f%s\n", d.Name, q1, q2, q3, sp, d.Bound, verdict)
		}
	}
	if cfg.jsonOut != "" {
		b, err := json.MarshalIndent(out, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.jsonOut, b, 0o644); err != nil {
			return err
		}
	}
	if len(loose) > 0 {
		return fmt.Errorf("spread exceeds the bound on %v", loose)
	}
	return nil
}

// tooLoose reports whether runs of one code disagree by more than the
// metric's bound. A metric with bound 0 (failed_share) may not rise at
// all, so any nonzero value is too loose.
func tooLoose(d metricDef, xs []float64) bool {
	if d.Bound == 0 {
		for _, x := range xs {
			if x != 0 {
				return true
			}
		}
		return false
	}
	return spread(xs) > d.Bound
}

func readRepeatFile(path string) (*repeatFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f repeatFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict compares a change's runs with its parent's under the
// metric's bound: "unresolved" when either side's own spread exceeds
// the bound, "worse" when the change's median is worse by more than the
// bound, "better" when it is better by more than the distance between
// the parent's quartiles, "same" otherwise.
func verdict(d metricDef, parent, change []float64) string {
	if tooLoose(d, parent) || tooLoose(d, change) {
		if d.Bound == 0 {
			return "worse" // a failure on either side is never noise
		}
		return "unresolved"
	}
	pm, cm := median(parent), median(change)
	gain := pm - cm // positive: the change is lower
	if d.Better == "higher" {
		gain = -gain
	}
	q1, _, q3 := quartiles(parent)
	switch {
	case -gain > d.Bound*pm:
		return "worse"
	case gain > q3-q1 && gain > 0:
		return "better"
	default:
		return "same"
	}
}

// compareFiles prints one row per workload × end-to-end metric of two
// -repeat outputs, every ratio with its base.
func compareFiles(parentPath, changePath string) error {
	parent, err := readRepeatFile(parentPath)
	if err != nil {
		return err
	}
	change, err := readRepeatFile(changePath)
	if err != nil {
		return err
	}
	if parent.Seconds != change.Seconds {
		return fmt.Errorf("run length differs: %d s against %d s", parent.Seconds, change.Seconds)
	}
	names := make([]string, 0, len(parent.Workloads))
	for name := range parent.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-18s %-20s %12s %12s %22s %8s %8s %6s  %s\n",
		"workload", "metric", "parent", "change", "change/parent", "spread_p", "spread_c", "bound", "verdict")
	worse := 0
	for _, w := range names {
		for _, d := range endToEnd {
			p, c := parent.Workloads[w][d.Name], change.Workloads[w][d.Name]
			if len(p) < 2 || len(c) < 2 {
				continue
			}
			pm, cm := median(p), median(c)
			ratio := "n/a (parent 0)"
			if pm != 0 {
				ratio = fmt.Sprintf("%.3f of %.3f %s", cm/pm, pm, d.Unit)
			}
			v := verdict(d, p, c)
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-18s %-20s %12.3f %12.3f %22s %8.4f %8.4f %6.2f  %s\n",
				w, d.Name, pm, cm, ratio, spread(p), spread(c), d.Bound, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the parent by more than their bound", worse)
	}
	return nil
}
