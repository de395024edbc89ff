// Command wfbench regenerates every table and figure of the evaluation
// section of Starlinger et al. (PVLDB 2014) on synthetic corpora and prints
// them as text tables. Its output is the source of EXPERIMENTS.md.
//
// Usage:
//
//	wfbench [-scale quick|full] [-seed N] [-only fig5,fig10,...]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	scaleFlag := flag.String("scale", "full", "experiment scale: quick or full")
	seed := flag.Int64("seed", 1, "corpus and study generation seed")
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	csvDir := flag.String("csv", "", "directory to also write per-figure CSV files into")
	flag.Parse()

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
			os.Exit(1)
		}
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick()
	case "full":
		scale = experiments.Full()
	default:
		fmt.Fprintf(os.Stderr, "wfbench: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			selected[id] = true
		}
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }

	start := time.Now()
	fmt.Printf("wfbench: scale=%s seed=%d\n", scale.Name, *seed)
	setup, err := experiments.NewSetup(scale, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("corpora: taverna=%d galaxy=%d | queries: rank=%d galaxy=%d retrieval=%d | raters=%d | ratings collected=%d (+%d galaxy)\n",
		setup.Taverna.Repo.Snapshot().Size(), setup.Galaxy.Repo.Snapshot().Size(),
		len(setup.Study.Queries), len(setup.GalaxyStudy.Queries), scale.RetrievalQueries,
		len(setup.Panel), setup.Study.RatingsGiven, setup.GalaxyStudy.RatingsGiven)
	fmt.Printf("setup took %v\n\n", time.Since(start).Round(time.Millisecond))

	writeCSV := func(id string, res fmt.Stringer) {
		if *csvDir == "" {
			return
		}
		type csvWriter interface{ WriteCSV(io.Writer) error }
		cw, ok := res.(csvWriter)
		if !ok {
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, id+".csv"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
			return
		}
		defer f.Close()
		if err := cw.WriteCSV(f); err != nil {
			fmt.Fprintf(os.Stderr, "wfbench: csv %s: %v\n", id, err)
		}
	}

	run := func(id string, f func() fmt.Stringer) {
		if !want(id) {
			return
		}
		t0 := time.Now()
		res := f()
		fmt.Println(res.String())
		writeCSV(id, res)
		fmt.Printf("[%s took %v]\n\n", id, time.Since(t0).Round(time.Millisecond))
	}

	run("fig4", func() fmt.Stringer { return experiments.Fig4(setup) })
	run("fig5", func() fmt.Stringer { return experiments.Fig5(setup) })
	run("fig6", func() fmt.Stringer { return experiments.Fig6(setup) })
	run("fig7", func() fmt.Stringer { return experiments.Fig7(setup) })
	run("fig8", func() fmt.Stringer { return experiments.Fig8(setup) })
	if want("fig9") {
		t0 := time.Now()
		f9 := experiments.Fig9(setup)
		fmt.Printf("(fig9 swept %d structural configurations)\n", f9.SweepSize)
		fmt.Println(f9.Best.String())
		fmt.Println(f9.Ensembles.String())
		writeCSV("fig9a", f9.Best)
		writeCSV("fig9b", f9.Ensembles)
		fmt.Printf("[fig9 took %v]\n\n", time.Since(t0).Round(time.Millisecond))
	}
	ctx := context.Background()
	run("fig10", func() fmt.Stringer { return experiments.Fig10(ctx, setup) })
	run("fig11", func() fmt.Stringer { return experiments.Fig11(ctx, setup) })
	run("fig12", func() fmt.Stringer { return experiments.Fig12(setup) })
	run("runtime", func() fmt.Stringer { return experiments.RuntimeStats(setup) })
	run("ext-autoip", func() fmt.Stringer { return experiments.AutoProjection(setup) })
	run("ext-tuned", func() fmt.Stringer { return experiments.TunedEnsemble(setup) })

	fmt.Printf("wfbench: total %v\n", time.Since(start).Round(time.Millisecond))
}
