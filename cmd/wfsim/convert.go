package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/pkg/wfsim"
)

// cmdImport converts external workflow files (Taverna-style XML, Galaxy .ga
// JSON) into a corpus file, inlining nested subworkflows that are resolvable
// within the imported set — the paper's corpus preparation pipeline.
func cmdImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	format := fs.String("format", "t2flow", "input format: t2flow or galaxy")
	out := fs.String("out", "corpus.json", "output corpus file")
	inline := fs.Bool("inline", true, "inline nested subworkflows")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("import: no input files given")
	}

	var wfs []*wfsim.Workflow
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		var wf *wfsim.Workflow
		switch *format {
		case "t2flow":
			wf, err = wfsim.ParseT2Flow(f)
		case "galaxy":
			wf, err = wfsim.ParseGalaxy(f)
		default:
			f.Close() //wfsimvet:ignore errpath read-only handle; the unknown-format error wins
			return fmt.Errorf("import: unknown format %q", *format)
		}
		f.Close() //wfsimvet:ignore errpath read-only handle; no buffered writes to lose
		if err != nil {
			return fmt.Errorf("import %s: %w", filepath.Base(path), err)
		}
		wfs = append(wfs, wf)
	}

	if *inline {
		byID := map[string]*wfsim.Workflow{}
		for _, wf := range wfs {
			byID[wf.ID] = wf
		}
		resolve := func(m *wfsim.Module) *wfsim.Workflow {
			return byID[m.Params["dataflow"]]
		}
		for i, wf := range wfs {
			wfs[i] = wf.Inline(resolve, 0)
		}
	}

	repo, err := wfsim.NewRepository(wfs...)
	if err != nil {
		return err
	}
	if err := repo.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("imported %d workflows (%s) into %s\n", len(wfs), *format, *out)
	return nil
}

// cmdExport writes workflows from a corpus into external formats, one file
// per workflow.
func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	corpusPath := fs.String("corpus", "corpus.json", "corpus file")
	format := fs.String("format", "t2flow", "output format: t2flow or galaxy")
	dir := fs.String("dir", ".", "output directory")
	ids := fs.String("ids", "", "comma-separated workflow IDs (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	repo, err := wfsim.LoadRepository(*corpusPath)
	if err != nil {
		return err
	}
	snap := repo.Snapshot()
	var selected []*wfsim.Workflow
	if *ids == "" {
		selected = snap.Workflows()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			wf := snap.Get(strings.TrimSpace(id))
			if wf == nil {
				return fmt.Errorf("export: workflow %q not found", id)
			}
			selected = append(selected, wf)
		}
	}
	ext := ".xml"
	if *format == "galaxy" {
		ext = ".ga"
	}
	for _, wf := range selected {
		path := filepath.Join(*dir, wf.ID+ext)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		switch *format {
		case "t2flow":
			err = wfsim.WriteT2Flow(f, wf)
		case "galaxy":
			err = wfsim.WriteGalaxy(f, wf)
		default:
			f.Close() //wfsimvet:ignore errpath nothing was written on this branch; the unknown-format error wins
			return fmt.Errorf("export: unknown format %q", *format)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("export %s: %w", wf.ID, err)
		}
	}
	fmt.Printf("exported %d workflows (%s) into %s\n", len(selected), *format, *dir)
	return nil
}

// cmdCluster groups a repository into functional clusters using a
// similarity measure — the clustering use case of the paper's introduction.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	corpusPath := fs.String("corpus", "corpus.json", "corpus file")
	measureName := fs.String("measure", "", "measure name (default MS_ip_te_pll)")
	minSim := fs.Float64("minsim", 0.5, "minimum average linkage similarity")
	method := fs.String("method", "agglomerative", "clustering method: agglomerative or components")
	limit := fs.Int("limit", 10, "max clusters to print")
	timeout := fs.Duration("timeout", 0, "whole-clustering deadline (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	eng, err := newEngine(*corpusPath)
	if err != nil {
		return err
	}
	var single bool
	switch *method {
	case "agglomerative":
	case "components":
		single = true
	default:
		return fmt.Errorf("cluster: unknown method %q", *method)
	}
	ctx, cancel := contextFor(*timeout)
	defer cancel()
	t0 := time.Now()
	rd := eng.Read()
	res, err := rd.Cluster(ctx, wfsim.ClusterOptions{
		Measure:       *measureName,
		MinSimilarity: minSim,
		SingleLinkage: single,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%d clusters over %d workflows (%s, minsim %.2f, %d pairs skipped, %v)\n",
		len(res.Clusters), rd.Frontier().Workflows, res.Measure, *minSim, res.Skipped, time.Since(t0).Round(time.Millisecond))
	for k, members := range res.Clusters {
		if k >= *limit {
			fmt.Printf("... and %d more clusters\n", len(res.Clusters)-*limit)
			break
		}
		fmt.Printf("cluster %d (%d workflows):", k, len(members))
		for i, id := range members {
			if i >= 6 {
				fmt.Printf(" +%d more", len(members)-6)
				break
			}
			fmt.Printf(" %s", id)
		}
		fmt.Println()
	}
	return nil
}
