// Clustering: group a repository of scientific workflows into functional
// clusters using a similarity measure — the repository-management use case
// of the paper's introduction ("grouping of workflows into functional
// clusters"). Cluster quality is evaluated against the generator's latent
// ground truth with purity, and the run also demonstrates the Engine's
// inverted-index search acceleration on the same corpus.
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
	profile.Workflows = 180
	profile.Clusters = 12
	c, err := wfsim.GenerateCorpus(profile, 77)
	if err != nil {
		log.Fatal(err)
	}

	eng, err := wfsim.New(c.Repo, wfsim.WithIndex(1))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	t0 := time.Now()
	minSim := 0.45
	rd := eng.Read()
	res, err := rd.Cluster(ctx, wfsim.ClusterOptions{Measure: "MS_ip_te_pll", MinSimilarity: &minSim})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clustered %d workflows in %v\n", c.Repo.Size(), time.Since(t0).Round(time.Millisecond))
	fmt.Printf("agglomerative clustering found %d clusters (latent: %d)\n", len(res.Clusters), profile.Clusters)

	// Agreement with the generator's latent clusters.
	ref := map[string]int{}
	for id, meta := range c.Truth.Meta {
		ref[id] = meta.Cluster
	}
	fmt.Printf("agreement with latent clusters: rand index %.3f, purity %.3f\n\n",
		res.RandIndex(ref), res.Purity(ref))

	for k, members := range res.Clusters {
		if k >= 5 {
			fmt.Printf("... and %d more clusters\n", len(res.Clusters)-5)
			break
		}
		sample := rd.Get(members[0])
		fmt.Printf("cluster %d: %3d workflows, e.g. %q\n", k, len(members), sample.Annotations.Title)
	}

	// Bonus: the engine was built WithIndex, so search is filter-and-refine
	// over the inverted label index; compare against an exact scan.
	fmt.Println("\nfilter-and-refine search (inverted index over canonical module labels):")
	query := c.Repo.Workflows()[0]
	t1 := time.Now()
	fast, stats, err := eng.Search(ctx, query, wfsim.SearchOptions{Measure: "MS_ip_te_pll", K: 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %s: scored %d candidates, bounded %d, pruned %d of %d workflows, %v\n",
		query.ID, stats.Scored, stats.Bounded, stats.Pruned, c.Repo.Size(), time.Since(t1).Round(time.Microsecond))

	exact, _, err := eng.Search(ctx, query, wfsim.SearchOptions{Measure: "MS_ip_te_pll", K: 10, Exact: true})
	if err != nil {
		log.Fatal(err)
	}
	got := map[string]bool{}
	for _, r := range fast {
		got[r.ID] = true
	}
	hit := 0
	for _, r := range exact {
		if got[r.ID] {
			hit++
		}
	}
	fmt.Printf("top-10 recall vs exact scan: %.2f\n", float64(hit)/float64(len(exact)))
}
