// Graph search: the Introduction's personalized-search motivation.
//
// Facebook's Graph Search query "find me all my friends in NYC who like
// cycling" only needs data reachable from the designated person, so under
// degree-bounded access constraints it is boundedly evaluable. This
// example encodes a social graph relationally, runs the personalized
// query through the bounded engine, and contrasts it with unanchored
// pattern queries that are NOT boundedly evaluable.
//
// Run: go run ./examples/graphsearch
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/workload"
)

func main() {
	soc, err := workload.GenerateSocial(workload.SocialConfig{
		People: 10000, MaxFriends: 50, MaxLikes: 10, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("social graph: %d tuples\n", soc.Instance.Size())
	fmt.Println("access schema (degree bounds + person key):")
	fmt.Println(soc.Access)

	eng, err := core.New(soc.Schema, soc.Access, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Load(soc.Instance); err != nil {
		log.Fatal(err)
	}

	// The personalized search, anchored at person 17, served through the
	// unified Query entry point.
	q := workload.GraphSearchQuery(17, "NYC", "cycling")
	fmt.Println("\npersonalized query:", q)
	res, err := eng.Query(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	base, err := eng.Baseline(q, eval.HashJoin)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bounded: %d friends found, %d tuples fetched (baseline scanned %d)\n",
		len(res.Rows), res.Stats.Fetched, base.Scanned)

	// The pattern family: anchored patterns are bounded, whole-graph
	// patterns are not (the paper reports 60% of pattern queries bounded).
	fmt.Println("\npattern query family:")
	covered := 0
	patterns := workload.PatternQueries(17)
	for _, pq := range patterns {
		res, err := eng.IsCovered(pq)
		if err != nil {
			log.Fatal(err)
		}
		status := "NOT boundedly evaluable (falls back to scans)"
		if res.Covered {
			covered++
			status = "boundedly evaluable"
		}
		fmt.Printf("  %-12s %s\n", pq.Label+":", status)
	}
	fmt.Printf("\n%d/%d patterns bounded — the paper's Web-graph study found 60%%\n",
		covered, len(patterns))

	// Query picks the right strategy per query: the unanchored census is
	// not bounded, so the default fallback scans — and the result still
	// names its columns.
	census, err := eng.Query(context.Background(), patterns[len(patterns)-1])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nunanchored census answered via %s (%d rows, columns %v)\n",
		census.Mode, len(census.Rows), census.Columns)

	// Under an access budget the same census is refused outright: a scan
	// carries no static bound, so no budget can admit it.
	if _, err := eng.Query(context.Background(), patterns[len(patterns)-1],
		core.WithAccessBudget(1_000_000)); err != nil {
		fmt.Println("with a 1M-tuple budget:", err)
	}
}
