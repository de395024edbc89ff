// Command wfsim is the user-facing CLI of the workflow similarity library:
// it generates corpora, compares workflow pairs under any measure
// configuration, runs top-k similarity search, and ranks candidate lists.
// It is built entirely on the public Engine facade of repro/pkg/wfsim.
//
// Usage:
//
//	wfsim gen     -profile taverna|galaxy -seed N -out corpus.json
//	wfsim compare -corpus corpus.json -a ID -b ID [-measure NAME]
//	wfsim search  -corpus corpus.json -query ID [-measure NAME] [-k 10]
//	wfsim dupes   -corpus corpus.json [-measure NAME] [-threshold 0.95]
//	wfsim measures
//
// Measure names follow the paper's notation: BW, BT, or
// {MS|PS|GE}_{np|ip}_{ta|tm|te}_{pw0|pw3|pll|plm|gw1|gll},
// e.g. MS_ip_te_pll (the paper's best structural configuration), plus
// shorthand like MS_plm and ensembles like "ensemble(BW,MS_ip_te_pll)".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/pkg/wfsim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "search":
		err = cmdSearch(os.Args[2:])
	case "dupes":
		err = cmdDupes(os.Args[2:])
	case "add":
		err = cmdAdd(os.Args[2:])
	case "rm":
		err = cmdRm(os.Args[2:])
	case "import":
		err = cmdImport(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "cluster":
		err = cmdCluster(os.Args[2:])
	case "rank":
		err = cmdRank(os.Args[2:])
	case "measures":
		err = cmdMeasures(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfsim: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: wfsim <gen|compare|search|dupes|add|rm|import|export|cluster|rank|measures> [flags]
  gen      -profile taverna|galaxy -seed N -out corpus.json
  compare  -corpus corpus.json -a ID -b ID [-measure MS_ip_te_pll]
  search   -corpus corpus.json -query ID [-measure MS_ip_te_pll] [-k 10] [-timeout 30s]
           [-index] [-min-shared 1] [-cache 0] [-repeat 1]
  dupes    -corpus corpus.json [-measure MS_np_ta_pll] [-threshold 0.95] [-cache 0] [-repeat 1]
  add      -corpus corpus.json [-format t2flow|galaxy] [-out corpus.json] file...
  rm       -corpus corpus.json -ids 1,2 [-out corpus.json]
  import   -format t2flow|galaxy -out corpus.json file...
  export   -corpus corpus.json -format t2flow|galaxy -dir DIR [-ids 1,2]
  cluster  -corpus corpus.json [-measure MS_ip_te_pll] [-minsim 0.5]
  rank     -corpus corpus.json -query ID -candidates 1,2,3 [-measures BW,MS_ip_te_pll]
  measures`)
}

// newEngine loads a corpus and builds an Engine with the CLI's interactive
// defaults.
func newEngine(corpusPath string, opts ...wfsim.Option) (*wfsim.Engine, error) {
	repo, err := wfsim.LoadRepository(corpusPath)
	if err != nil {
		return nil, err
	}
	return wfsim.New(repo, opts...)
}

// contextFor returns a context honoring an optional -timeout flag value.
func contextFor(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.WithCancel(context.Background())
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	profile := fs.String("profile", "taverna", "corpus profile: taverna or galaxy")
	seed := fs.Int64("seed", 1, "generation seed")
	out := fs.String("out", "corpus.json", "output file")
	n := fs.Int("n", 0, "override workflow count (0 = profile default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var p wfsim.Profile
	switch *profile {
	case "taverna":
		p = wfsim.TavernaProfile()
	case "galaxy":
		p = wfsim.GalaxyProfile()
	default:
		return fmt.Errorf("unknown profile %q", *profile)
	}
	if *n > 0 {
		p.Workflows = *n
		if p.Clusters > *n {
			p.Clusters = *n
		}
	}
	c, err := wfsim.GenerateCorpus(p, *seed)
	if err != nil {
		return err
	}
	snap := c.Repo.Snapshot()
	if err := c.Repo.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %d %s workflows to %s\n", snap.Size(), p.Name, *out)
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	corpusPath := fs.String("corpus", "corpus.json", "corpus file")
	a := fs.String("a", "", "first workflow ID")
	b := fs.String("b", "", "second workflow ID")
	measureName := fs.String("measure", "", "measure name (default: a representative set)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	eng, err := newEngine(*corpusPath)
	if err != nil {
		return err
	}
	var names []string
	if *measureName != "" {
		names = []string{*measureName}
	}
	rd := eng.Read()
	scores, err := rd.CompareIDs(context.Background(), *a, *b, names...)
	if err != nil {
		return err
	}
	wa, wb := rd.Get(*a), rd.Get(*b)
	fmt.Printf("%s (%d modules) vs %s (%d modules)\n", wa.ID, wa.Size(), wb.ID, wb.Size())
	for _, s := range scores {
		if s.Err != nil {
			fmt.Printf("  %-16s error: %v\n", s.Measure, s.Err)
			continue
		}
		fmt.Printf("  %-16s %.4f\n", s.Measure, s.Similarity)
	}
	return nil
}

func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	corpusPath := fs.String("corpus", "corpus.json", "corpus file")
	query := fs.String("query", "", "query workflow ID")
	measureName := fs.String("measure", "", "measure name (default MS_ip_te_pll)")
	k := fs.Int("k", 10, "number of results")
	timeout := fs.Duration("timeout", 0, "whole-search deadline (0 = none)")
	useIndex := fs.Bool("index", false, "filter-and-refine via the inverted label index (measures without an exact score bound only; Module Sets searches stay exact)")
	minShared := fs.Int("min-shared", 1, "index filter knob: min shared canonical labels (implies -index when > 1)")
	cacheSize := fs.Int("cache", 0, "pairwise score cache capacity (0 = no cache)")
	repeat := fs.Int("repeat", 1, "run the search N times (shows cache warm-up)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var opts []wfsim.Option
	if *useIndex || *minShared > 1 {
		opts = append(opts, wfsim.WithIndex(*minShared))
	}
	if *cacheSize > 0 {
		opts = append(opts, wfsim.WithScoreCache(*cacheSize))
	}
	eng, err := newEngine(*corpusPath, opts...)
	if err != nil {
		return err
	}
	ctx, cancel := contextFor(*timeout)
	defer cancel()
	rd := eng.Read()
	var results []wfsim.Result
	var stats wfsim.Stats
	for i := 0; i < *repeat || i == 0; i++ {
		results, stats, err = rd.SearchID(ctx, *query, wfsim.SearchOptions{Measure: *measureName, K: *k})
		if err != nil {
			return err
		}
	}
	q := rd.Get(*query)
	fmt.Printf("top-%d for %q (%s) by %s: scored %d, bounded %d, pruned %d, skipped %d in %v (gen %d)\n",
		*k, q.ID, q.Annotations.Title, stats.Measure,
		stats.Scored, stats.Bounded, stats.Pruned, stats.Skipped, stats.Elapsed.Round(time.Millisecond), stats.Generation)
	if *cacheSize > 0 {
		fmt.Printf("score cache: %d hits, %d misses this call; %d hits, %d misses, %d entries total\n",
			stats.CacheHits, stats.CacheMisses,
			eng.CacheStats().Hits, eng.CacheStats().Misses, eng.CacheStats().Entries)
	}
	for i, r := range results {
		wf := rd.Get(r.ID)
		fmt.Printf("%2d. %-8s %.4f  %s\n", i+1, r.ID, r.Similarity, wf.Annotations.Title)
	}
	return nil
}

func cmdDupes(args []string) error {
	fs := flag.NewFlagSet("dupes", flag.ExitOnError)
	corpusPath := fs.String("corpus", "corpus.json", "corpus file")
	measureName := fs.String("measure", "MS_np_ta_pll", "measure name")
	threshold := fs.Float64("threshold", 0.95, "duplicate similarity threshold")
	limit := fs.Int("limit", 25, "max pairs to print")
	timeout := fs.Duration("timeout", 0, "whole-scan deadline (0 = none)")
	cacheSize := fs.Int("cache", 0, "pairwise score cache capacity (0 = no cache)")
	repeat := fs.Int("repeat", 1, "run the scan N times (shows cache warm-up)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var opts []wfsim.Option
	if *cacheSize > 0 {
		opts = append(opts, wfsim.WithScoreCache(*cacheSize))
	}
	eng, err := newEngine(*corpusPath, opts...)
	if err != nil {
		return err
	}
	ctx, cancel := contextFor(*timeout)
	defer cancel()
	rd := eng.Read()
	var pairs []wfsim.Pair
	var stats wfsim.Stats
	for i := 0; i < *repeat || i == 0; i++ {
		pairs, stats, err = rd.Duplicates(ctx, *threshold, wfsim.DuplicateOptions{Measure: *measureName})
		if err != nil {
			return err
		}
	}
	fmt.Printf("%d near-duplicate pairs (>= %.2f under %s) among %d workflows in %v (%d pairs skipped)\n",
		len(pairs), *threshold, stats.Measure, rd.Frontier().Workflows, stats.Elapsed.Round(time.Millisecond), stats.Skipped)
	if *cacheSize > 0 {
		fmt.Printf("score cache: %d hits, %d misses on the last scan\n", stats.CacheHits, stats.CacheMisses)
	}
	for i, p := range pairs {
		if i >= *limit {
			fmt.Printf("... and %d more\n", len(pairs)-*limit)
			break
		}
		fmt.Printf("  %-8s %-8s %.4f\n", p.A, p.B, p.Similarity)
	}
	return nil
}

// cmdMeasures lists the measure notation the registry resolves.
func cmdMeasures(args []string) error {
	fs := flag.NewFlagSet("measures", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := wfsim.NewRegistry()
	fmt.Println("annotation and structural measures (paper notation):")
	for _, name := range reg.Builtin() {
		fmt.Printf("  %s\n", name)
	}
	fmt.Println(`suffixes: _greedy (greedy module mapping), _nonorm (no normalization)
shorthand: missing np/ip defaults to np, missing ta/tm/te to ta (MS_plm = MS_np_ta_plm)
ensembles: ENS(BW+MS_ip_te_pll) or ensemble(BW, MS_ip_te_pll), arbitrarily nested`)
	return nil
}
