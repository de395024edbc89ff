// Ensemble ranking: demonstrate the paper's Section 5.1.6 finding that
// combining an annotational and a structural measure by mean score yields
// retrieval that beats either measure alone — evaluated here against the
// generator's latent ground truth, averaged over several query workflows.
//
// The ensemble is built purely from measure notation: the registry parses
// "ensemble(BW, MS_ip_te_pll)" into the mean-score combination of its
// members, so no measure is constructed by hand.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/pkg/wfsim"
)

func main() {
	profile := wfsim.TavernaProfile()
	profile.Workflows = 300
	profile.Clusters = 16
	c, err := wfsim.GenerateCorpus(profile, 5)
	if err != nil {
		log.Fatal(err)
	}

	eng, err := wfsim.New(c.Repo)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	names := []string{"BW", "MS_ip_te_pll", "ensemble(BW, MS_ip_te_pll)"}
	queries := c.Repo.Snapshot().IDs()[:12]
	const k = 10

	// Precision@10 against the latent clusters: the fraction of each
	// query's top-10 that shares the query's functional cluster.
	type row struct {
		name string
		mean float64
		sd   float64
	}
	var rows []row
	for _, name := range names {
		var precisions []float64
		canonical := name
		for _, q := range queries {
			results, stats, err := eng.SearchID(ctx, q, wfsim.SearchOptions{Measure: name, K: k})
			if err != nil {
				log.Fatalf("%s on %s: %v", name, q, err)
			}
			canonical = stats.Measure
			hits := 0
			for _, r := range results {
				if c.Truth.Meta[r.ID].Cluster == c.Truth.Meta[q].Cluster {
					hits++
				}
			}
			precisions = append(precisions, float64(hits)/float64(k))
		}
		var sum float64
		for _, p := range precisions {
			sum += p
		}
		mean := sum / float64(len(precisions))
		var varsum float64
		for _, p := range precisions {
			varsum += (p - mean) * (p - mean)
		}
		sd := 0.0
		if len(precisions) > 1 {
			sd = varsum / float64(len(precisions)-1)
		}
		rows = append(rows, row{canonical, mean, sd})
	}

	fmt.Printf("mean precision@%d vs latent clusters over %d queries\n\n", k, len(queries))
	fmt.Printf("%-28s %10s %9s\n", "measure", "prec.mean", "prec.var")
	sort.Slice(rows, func(i, j int) bool { return rows[i].mean > rows[j].mean })
	for _, r := range rows {
		fmt.Printf("%-28s %10.3f %9.3f\n", r.name, r.mean, r.sd)
	}
	fmt.Println("\n(the ensemble combines annotational and structural evidence; per the paper")
	fmt.Println(" it should retrieve best, with lower variance than its members)")
}
