// Duplicate detection: scan a repository for functionally (near-)equivalent
// workflow pairs — one of the repository-management challenges motivating
// the paper (detecting functionally equivalent workflows, Section 1).
//
// Prototype workflows and their shallow mutants score near 1 under
// MS_ip_te_pll; the importance projection makes the measure robust to the
// shim-module noise that separates textual duplicates.
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
	profile.Workflows = 150
	profile.Clusters = 10
	c, err := wfsim.GenerateCorpus(profile, 99)
	if err != nil {
		log.Fatal(err)
	}

	eng, err := wfsim.New(c.Repo)
	if err != nil {
		log.Fatal(err)
	}

	const threshold = 0.9
	pairs, stats, err := eng.Duplicates(context.Background(), threshold,
		wfsim.DuplicateOptions{Measure: "MS_ip_te_pll"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scanned %d workflow pairs in %v (%d scored, %d provably below the threshold)\n",
		stats.Scored+stats.Bounded, stats.Elapsed.Round(time.Millisecond), stats.Scored, stats.Bounded)
	fmt.Printf("%d near-duplicate pairs at threshold %.2f under %s\n\n", len(pairs), threshold, stats.Measure)

	correct, shown := 0, 0
	for _, p := range pairs {
		sameCluster := c.Truth.Meta[p.A].Cluster == c.Truth.Meta[p.B].Cluster
		if sameCluster {
			correct++
		}
		if shown < 15 {
			shown++
			fmt.Printf("  %-6s %-6s %.4f  same-cluster=%v\n", p.A, p.B, p.Similarity, sameCluster)
		}
	}
	if len(pairs) > 0 {
		fmt.Printf("\nground-truth precision of the duplicate scan: %.1f%% (%d/%d pairs share a cluster)\n",
			100*float64(correct)/float64(len(pairs)), correct, len(pairs))
	}
}
