package main

import (
	"flag"
	"fmt"
	"strings"

	"repro/pkg/wfsim"
)

// cmdRank ranks a set of candidate workflows against a query workflow under
// one or more measures, and — when several measures are given — aggregates
// their rankings into a BioConsert consensus, mirroring how the paper
// aggregates expert rankings.
func cmdRank(args []string) error {
	fs := flag.NewFlagSet("rank", flag.ExitOnError)
	corpusPath := fs.String("corpus", "corpus.json", "corpus file")
	query := fs.String("query", "", "query workflow ID")
	cands := fs.String("candidates", "", "comma-separated candidate workflow IDs")
	measureNames := fs.String("measures", "BW,MS_ip_te_pll", "comma-separated measure names")
	if err := fs.Parse(args); err != nil {
		return err
	}

	eng, err := newEngine(*corpusPath)
	if err != nil {
		return err
	}
	rd := eng.Read()
	q := rd.Get(*query)
	if q == nil {
		return fmt.Errorf("rank: query workflow %q not found", *query)
	}
	var candidates []string
	for _, id := range strings.Split(*cands, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if rd.Get(id) == nil {
			return fmt.Errorf("rank: candidate %q not found", id)
		}
		candidates = append(candidates, id)
	}
	if len(candidates) < 2 {
		return fmt.Errorf("rank: need at least two candidates")
	}

	var names []string
	for _, name := range strings.Split(*measureNames, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}

	var rankings []wfsim.Ranking
	var canonical []string
	for _, name := range names {
		m, err := rd.ParseMeasure(name)
		if err != nil {
			return err
		}
		scores := map[string]float64{}
		for _, id := range candidates {
			s, err := m.Compare(q, rd.Get(id))
			if err != nil {
				fmt.Printf("%-20s skipping %s: %v\n", m.Name(), id, err)
				continue
			}
			scores[id] = s
		}
		r := wfsim.RankingFromScores(scores, 1e-9)
		rankings = append(rankings, r)
		canonical = append(canonical, m.Name())
		fmt.Printf("%-20s %s\n", m.Name(), r)
	}
	if len(rankings) > 1 {
		consensus := wfsim.ConsensusRanking(rankings)
		fmt.Printf("%-20s %s\n", "consensus", consensus)
		for i, label := range canonical {
			fmt.Printf("  correctness(%s vs consensus) = %.3f\n",
				label, wfsim.RankingCorrectness(consensus, rankings[i]))
		}
	}
	return nil
}
