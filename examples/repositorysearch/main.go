// Repository search: generate a myExperiment-style corpus, pick a query
// workflow, and retrieve its top-10 most similar workflows with the paper's
// best structural configuration (MS_ip_te_pll), comparing the hit lists of a
// structural and an annotation measure — the similarity-search use case the
// paper's evaluation centres on, driven through the public wfsim Engine.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/pkg/wfsim"
)

func main() {
	profile := wfsim.TavernaProfile()
	profile.Workflows = 400 // keep the example snappy; use 1483 for paper scale
	profile.Clusters = 24

	t0 := time.Now()
	c, err := wfsim.GenerateCorpus(profile, 7)
	if err != nil {
		log.Fatal(err)
	}
	seed := c.Repo.Snapshot()
	fmt.Printf("generated %d workflows in %v\n", seed.Size(), time.Since(t0).Round(time.Millisecond))

	eng, err := wfsim.New(c.Repo)
	if err != nil {
		log.Fatal(err)
	}
	query := seed.Workflows()[2]
	fmt.Printf("query: %s %q (%d modules)\n\n", query.ID, query.Annotations.Title, query.Size())

	// A whole-call deadline bounds the search (and tightens the per-pair GED
	// budget for GE measures) — the paper's timeout semantics as an API knob.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	rd := eng.Read()
	for _, measure := range []string{"MS_ip_te_pll", "BW"} {
		results, stats, err := rd.Search(ctx, query, wfsim.SearchOptions{Measure: measure, K: 10})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("top-10 by %s (%v, %d scored, %d bounded, %d skipped):\n",
			stats.Measure, stats.Elapsed.Round(time.Millisecond), stats.Scored, stats.Bounded, stats.Skipped)
		for i, r := range results {
			wf := rd.Get(r.ID)
			marker := " "
			if c.Truth.Meta[r.ID].Cluster == c.Truth.Meta[query.ID].Cluster {
				marker = "*" // same latent functional cluster as the query
			}
			fmt.Printf("%2d. %s %-6s %.4f  %s\n", i+1, marker, r.ID, r.Similarity, wf.Annotations.Title)
		}
		fmt.Println()
	}
	fmt.Println("* = same latent functional cluster as the query (generator ground truth)")
}
