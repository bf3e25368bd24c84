package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/workload"
)

// cfg builds a cliConfig with the test defaults, tweaked by fn.
func cfg(fn func(*cliConfig)) cliConfig {
	c := cliConfig{mode: "explain", k: 1, budget: -1, fallback: "scan"}
	if fn != nil {
		fn(&c)
	}
	return c
}

func TestSetupFromDocument(t *testing.T) {
	eng, _, queries, params, _, err := setup(cfg(func(c *cliConfig) { c.file = filepath.Join("testdata", "accidents.bq") }))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := queries["Q0"]; !ok {
		t.Fatal("Q0 missing from parsed document")
	}
	if got := params["Q51"]; len(got) != 2 {
		t.Fatalf("Q51 params = %v", got)
	}
	res, err := eng.IsCovered(queries["Q0"])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Fatalf("Q0 from the document must be covered:\n%s", res.Explain())
	}
}

func TestRunModesAgainstDocumentWithData(t *testing.T) {
	// Generate data matching the document schema and save it as TSV.
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: 3, AccidentsPerDay: 5, MaxVehicles: 3, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := load.SaveInstance(acc.Instance, dir); err != nil {
		t.Fatal(err)
	}
	doc := filepath.Join("testdata", "accidents.bq")
	for _, mode := range []string{"check", "plan", "explain", "run", "baseline"} {
		if err := run(cfg(func(c *cliConfig) { c.file = doc; c.dataDir = dir; c.query = "Q0"; c.mode = mode })); err != nil {
			t.Errorf("mode %s: %v", mode, err)
		}
	}
	if err := run(cfg(func(c *cliConfig) { c.file = doc; c.dataDir = dir; c.query = "Q51"; c.mode = "specialize" })); err != nil {
		t.Errorf("specialize: %v", err)
	}
}

func TestRunDemoModes(t *testing.T) {
	if err := run(cfg(func(c *cliConfig) { c.demo = "accidents"; c.query = "Q0"; c.mode = "run"; c.days = 2 })); err != nil {
		t.Errorf("demo accidents: %v", err)
	}
	if err := run(cfg(func(c *cliConfig) { c.demo = "social"; c.query = "GraphSearch"; c.mode = "check"; c.people = 200 })); err != nil {
		t.Errorf("demo social: %v", err)
	}
	// Save/export path.
	dir := t.TempDir()
	if err := run(cfg(func(c *cliConfig) {
		c.saveDir = dir
		c.demo = "accidents"
		c.query = "Q0"
		c.mode = "check"
		c.days = 2
	})); err != nil {
		t.Errorf("save: %v", err)
	}
}

// TestRunServingFlags exercises the Query-API flags: a generous budget
// admits Q0, a budget of 0 refuses it (without erroring — admission
// control is a negotiated outcome, not a failure), an unknown fallback is
// rejected, and a refuse-mode run of a bounded query still succeeds.
func TestRunServingFlags(t *testing.T) {
	if err := run(cfg(func(c *cliConfig) {
		c.demo = "accidents"
		c.query = "Q0"
		c.mode = "run"
		c.days = 2
		c.budget = 1 << 40
		c.fallback = "refuse"
	})); err != nil {
		t.Errorf("bounded Q0 under a generous budget: %v", err)
	}
	if err := run(cfg(func(c *cliConfig) { c.demo = "accidents"; c.query = "Q0"; c.mode = "run"; c.days = 2; c.budget = 0 })); err != nil {
		t.Errorf("budget refusal must not be an error: %v", err)
	}
	if err := run(cfg(func(c *cliConfig) {
		c.demo = "accidents"
		c.query = "Q0"
		c.mode = "run"
		c.days = 2
		c.fallback = "bogus"
	})); err == nil {
		t.Error("unknown fallback must error")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(cfg(func(c *cliConfig) { c.mode = "explain" })); err == nil {
		t.Error("no input source must error")
	}
	if err := run(cfg(func(c *cliConfig) { c.demo = "accidents"; c.query = "Ghost"; c.mode = "run"; c.days = 1 })); err == nil {
		t.Error("unknown query must error")
	}
	if err := run(cfg(func(c *cliConfig) { c.demo = "accidents"; c.query = "Q0"; c.mode = "bogus"; c.days = 1 })); err == nil {
		t.Error("unknown mode must error")
	}
	if err := run(cfg(func(c *cliConfig) { c.demo = "accidents"; c.query = "Q0"; c.mode = "specialize"; c.days = 1 })); err == nil {
		t.Error("specialize without params must error")
	}
	// Listing queries (empty -query) is not an error.
	if err := run(cfg(func(c *cliConfig) { c.demo = "accidents"; c.mode = "run"; c.days = 1 })); err != nil {
		t.Errorf("query listing: %v", err)
	}
}

// TestQueryListingSorted pins the listing order: map iteration order is
// random, so the listing must sort names (Q0 before Q51, every run).
func TestQueryListingSorted(t *testing.T) {
	old := os.Stdout
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = pw
	runErr := run(cfg(func(c *cliConfig) { c.demo = "accidents"; c.mode = "run"; c.days = 1 }))
	pw.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, pr); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	out := buf.String()
	i0, i51 := strings.Index(out, "Q0"), strings.Index(out, "Q51")
	if i0 < 0 || i51 < 0 || i0 > i51 {
		t.Errorf("listing must print Q0 before Q51:\n%s", out)
	}
	var prev string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "  ") {
			continue
		}
		name := strings.TrimSpace(line)
		if prev != "" && name < prev {
			t.Errorf("listing not sorted: %q after %q", name, prev)
		}
		prev = name
	}
}

// captureStdout runs fn with os.Stdout redirected, returning what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = pw
	runErr := fn()
	pw.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, pr); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return buf.String()
}

// TestRunStreamNDJSON checks the -stream flag: one JSON object per row,
// decodable, with the query's column names as keys.
func TestRunStreamNDJSON(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(cfg(func(c *cliConfig) {
			c.demo = "accidents"
			c.query = "Q0"
			c.mode = "run"
			c.days = 2
			c.stream = true
		}))
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatalf("no NDJSON rows:\n%s", out)
	}
	for _, line := range lines {
		var row map[string]interface{}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line %q is not JSON: %v", line, err)
		}
		if _, ok := row["xa"]; !ok {
			t.Fatalf("row %q lacks the xa column", line)
		}
	}
}

// TestRunApplyDelta checks the -apply flag end to end: the delta is
// ingested before the query, so a driver age inserted by the delta shows
// up in Q0's streamed answers, and a violating delta is rejected.
func TestRunApplyDelta(t *testing.T) {
	dir := t.TempDir()
	deltaPath := filepath.Join(dir, "delta.tsv")
	delta := "+\tAccident\t900001\tQueen's Park\t1/5/2005\n" +
		"+\tCasualty\t900001\t900001\t1\t900001\n" +
		"+\tVehicle\t900001\tzed\t2001\n"
	if err := os.WriteFile(deltaPath, []byte(delta), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return run(cfg(func(c *cliConfig) {
			c.demo = "accidents"
			c.apply = deltaPath
			c.query = "Q0"
			c.mode = "run"
			c.days = 2
			c.stream = true
		}))
	})
	if !strings.Contains(out, "applied "+deltaPath+": +3 -0") {
		t.Errorf("missing apply summary:\n%s", out)
	}
	if !strings.Contains(out, "2001") {
		t.Errorf("delta-inserted driver age missing from answers:\n%s", out)
	}

	// A batch violating ψ3 (two districts for one aid) must be rejected.
	badPath := filepath.Join(dir, "bad.tsv")
	bad := "+\tAccident\t1\tSoho\t9/9/1999\n"
	if err := os.WriteFile(badPath, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(cfg(func(c *cliConfig) {
		c.demo = "accidents"
		c.apply = badPath
		c.query = "Q0"
		c.mode = "run"
		c.days = 2
	}))
	if err == nil || !strings.Contains(err.Error(), "violate") {
		t.Errorf("violating delta must be rejected with the violation list, got %v", err)
	}

	// -apply without an instance is a usage error.
	if err := run(cfg(func(c *cliConfig) {
		c.file = filepath.Join("testdata", "accidents.bq")
		c.apply = deltaPath
		c.mode = "check"
		c.query = "Q0"
	})); err == nil {
		t.Error("-apply without data must error")
	}
}

// TestRunDataDirRecovery drives -data-dir across two invocations: the
// first loads the demo, WAL-logs an applied delta, and exits; the second
// must recover the committed state — demo load skipped, the delta's
// tuples present — exactly as a beserve restart would.
func TestRunDataDirRecovery(t *testing.T) {
	dir := t.TempDir()
	deltaPath := filepath.Join(dir, "delta.tsv")
	delta := "+\tAccident\t900001\tQueen's Park\t1/5/2005\n" +
		"+\tCasualty\t900001\t900001\t1\t900001\n" +
		"+\tVehicle\t900001\tzed\t2001\n"
	if err := os.WriteFile(deltaPath, []byte(delta), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		ddir := filepath.Join(dir, "state", map[int]string{1: "k1", 4: "k4"}[shards])
		if err := run(cfg(func(c *cliConfig) {
			c.demo = "accidents"
			c.days = 2
			c.shards = shards
			c.durableDir = ddir
			c.apply = deltaPath
			c.query = "Q0"
			c.mode = "check"
		})); err != nil {
			t.Fatalf("shards=%d first run: %v", shards, err)
		}
		out := captureStdout(t, func() error {
			return run(cfg(func(c *cliConfig) {
				c.demo = "accidents"
				c.days = 2
				c.shards = shards
				c.durableDir = ddir
				c.query = "Q0"
				c.mode = "run"
				c.stream = true
			}))
		})
		if !strings.Contains(out, "recovered committed state from "+ddir+" (version 1") {
			t.Errorf("shards=%d: recovery banner missing:\n%s", shards, out)
		}
		if !strings.Contains(out, "2001") {
			t.Errorf("shards=%d: WAL-logged driver age missing after recovery:\n%s", shards, out)
		}
	}
}

// slowWriter models a congested consumer: each row write stalls long
// enough that a request deadline strikes mid-stream.
type slowWriter struct{ rows int }

func (s *slowWriter) Write(p []byte) (int, error) {
	s.rows += strings.Count(string(p), "\n")
	time.Sleep(500 * time.Microsecond)
	return len(p), nil
}

// TestStreamDeadlinePropagatesToExitCode is the regression test for the
// -stream timeout hole: a deadline that struck while rows were being
// written used to leave the stream silently truncated — streamNDJSON
// reported no error, run printed the summary, and bequery exited 0 on
// an incomplete NDJSON pipeline. The cut must surface as an error so
// main exits nonzero.
func TestStreamDeadlinePropagatesToExitCode(t *testing.T) {
	eng, _, queries, _, _, err := setup(cfg(func(c *cliConfig) { c.demo = "social"; c.people = 100 }))
	if err != nil {
		t.Fatal(err)
	}
	q, ok := queries["allPairs"]
	if !ok {
		t.Fatal("social demo lost the allPairs query")
	}
	res, err := eng.Query(context.Background(), q,
		core.WithStream(), core.WithDeadline(time.Now().Add(60*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	w := &slowWriter{}
	serr := streamNDJSON(w, res)
	if serr == nil {
		t.Fatalf("stream cut by the deadline after %d rows returned nil (bequery would exit 0)", w.rows)
	}
	if !errors.Is(serr, context.DeadlineExceeded) {
		t.Fatalf("stream error = %v, want a DeadlineExceeded", serr)
	}
	// run's -stream branch returns this error, so main exits 1; a full
	// drain would have emitted every row.
	fullRes, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if w.rows >= len(fullRes.Rows) {
		t.Fatalf("deadline did not cut the stream: %d of %d rows", w.rows, len(fullRes.Rows))
	}
}
