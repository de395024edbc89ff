// Example incremental demonstrates the mutable-repository API: a living
// corpus mutated through transactional Engine.Apply batches, with
// snapshot-pinned reads, incremental inverted-index maintenance (no full
// rebuilds) and a shared pairwise score cache that survives across Search,
// Duplicates and Cluster until a mutation bumps the generation.
//
// It is the end-to-end shape of a myExperiment-style repository that grows
// and churns while serving similarity queries.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/pkg/wfsim"
)

func main() {
	// A small synthetic corpus stands in for the living repository.
	p := wfsim.TavernaProfile()
	p.Workflows = 120
	p.Clusters = 8
	c, err := wfsim.GenerateCorpus(p, 42)
	if err != nil {
		log.Fatal(err)
	}

	eng, err := wfsim.New(c.Repo,
		wfsim.WithIndex(1),          // filter-and-refine, incrementally maintained
		wfsim.WithScoreCache(1<<16), // shared pairwise score cache
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	seedIDs := c.Repo.Snapshot().IDs()
	queryID := seedIDs[0]

	// Cold search: every scored pair is a cache miss; pairs that provably
	// cannot reach the top 5 are bounded — not looked up, not scored.
	before := eng.Read()
	results, stats, err := before.SearchID(ctx, queryID, wfsim.SearchOptions{K: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generation %d | cold search:  %d scored, %d bounded, %d pruned, cache %d/%d hit/miss\n",
		stats.Generation, stats.Scored, stats.Bounded, stats.Pruned, stats.CacheHits, stats.CacheMisses)

	// Warm search: identical pairs come straight from the cache.
	_, stats, err = before.SearchID(ctx, queryID, wfsim.SearchOptions{K: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generation %d | warm search:  %d scored, %d bounded, cache %d/%d hit/miss\n",
		stats.Generation, stats.Scored, stats.Bounded, stats.CacheHits, stats.CacheMisses)

	// Mutate the repository: one transactional batch — clone the current
	// best hit under a new ID, and drop one workflow. Reads in flight keep
	// their pinned snapshot; the index is updated in O(labels), not rebuilt.
	best := before.Get(results[0].ID)
	clone := best.Clone()
	clone.ID = "clone-of-" + best.ID
	removed := seedIDs[1]
	gen, err := eng.Apply(ctx,
		wfsim.AddWorkflow(clone),
		wfsim.RemoveWorkflow(removed),
	)
	if err != nil {
		log.Fatal(err)
	}
	ist, _ := eng.IndexStats()
	fmt.Printf("applied add+remove -> generation %d (index: %d live, %d tombstoned, %d full rebuilds)\n",
		gen, ist.Live, ist.Dead, ist.Rebuilds)

	// The new workflow is immediately searchable, and the commit retired only
	// the cached pairs it wrote a side of: the one miss is the added clone.
	results, stats, err = eng.SearchID(ctx, queryID, wfsim.SearchOptions{K: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generation %d | fresh search: cache %d/%d hit/miss, top hit %s (%.3f)\n",
		stats.Generation, stats.CacheHits, stats.CacheMisses, results[0].ID, results[0].Similarity)
	for _, r := range results {
		if r.ID == clone.ID {
			fmt.Printf("  the just-added %q already ranks in the top-5 — no rebuild needed\n", clone.ID)
		}
		if r.ID == removed {
			log.Fatalf("removed workflow %q served", removed)
		}
	}

	// Duplicates and Cluster share the same cache: the duplicate scan warms
	// the pair matrix the clustering then reuses.
	pairs, dstats, err := eng.Duplicates(ctx, 0.95, wfsim.DuplicateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("duplicates: %d pairs >= 0.95, cache %d/%d hit/miss\n",
		len(pairs), dstats.CacheHits, dstats.CacheMisses)
	if _, err := eng.Cluster(ctx, wfsim.ClusterOptions{}); err != nil {
		log.Fatal(err)
	}
	cs := eng.CacheStats()
	fmt.Printf("cluster reused the warmed matrix: %d cumulative hits, %d entries cached\n",
		cs.Hits, cs.Entries)
}
