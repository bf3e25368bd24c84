// Command bebench regenerates the paper's experiment tables E1–E10.
//
// Usage:
//
//	bebench            # run every experiment
//	bebench -exp e1    # one experiment (e1..e10)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (e1..e10) or all")
	flag.Parse()
	if err := run(os.Stdout, strings.ToLower(*exp)); err != nil {
		fmt.Fprintln(os.Stderr, "bebench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string) error {
	if exp == "all" {
		tables, err := bench.All()
		if err != nil {
			return err
		}
		for _, t := range tables {
			fmt.Fprintln(w, t.Render())
		}
		return nil
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
	default:
		return fmt.Errorf("unknown experiment %q (want e1..e10 or all)", exp)
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t.Render())
	return nil
}
