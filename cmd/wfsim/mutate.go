package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/pkg/wfsim"
)

// cmdAdd applies an AddWorkflow mutation batch to a corpus: each input file
// is parsed, the whole batch commits transactionally through Engine.Apply
// (so one bad file leaves the corpus untouched), and the mutated corpus is
// written back. This is the living-repository ingest path — the corpus
// equivalent of a new workflow being uploaded to myExperiment.
func cmdAdd(args []string) error {
	fs := flag.NewFlagSet("add", flag.ExitOnError)
	corpusPath := fs.String("corpus", "corpus.json", "corpus file")
	format := fs.String("format", "t2flow", "input format: t2flow or galaxy")
	out := fs.String("out", "", "output corpus file (default: overwrite -corpus)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("add: no input files given")
	}

	eng, err := newEngine(*corpusPath)
	if err != nil {
		return err
	}
	muts := make([]wfsim.Mutation, 0, fs.NArg())
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
			return fmt.Errorf("add: unknown format %q", *format)
		}
		f.Close() //wfsimvet:ignore errpath read-only handle; no buffered writes to lose
		if err != nil {
			return fmt.Errorf("add %s: %w", filepath.Base(path), err)
		}
		muts = append(muts, wfsim.AddWorkflow(wf))
	}
	return commit(eng, muts, *corpusPath, *out, "added %d workflows: %d total at generation %d, written to %s\n")
}

// commit applies muts as one batch, writes the corpus a Reader then sees (in
// ID order) to out — the -corpus file when out is empty — and reports the
// batch with format (mutations, workflows, generation, file).
func commit(eng *wfsim.Engine, muts []wfsim.Mutation, corpusPath, out, format string) error {
	gen, err := eng.Apply(context.Background(), muts...)
	if err != nil {
		return err
	}
	if out == "" {
		out = corpusPath
	}
	rd := eng.Read()
	repo, err := wfsim.NewRepository(rd.Workflows()...)
	if err != nil {
		return err
	}
	if err := repo.SaveFile(out); err != nil {
		return err
	}
	fmt.Printf(format, len(muts), rd.Frontier().Workflows, gen, out)
	return nil
}

// cmdRm applies a RemoveWorkflow mutation batch to a corpus and writes the
// result back; unknown IDs fail the whole batch.
func cmdRm(args []string) error {
	fs := flag.NewFlagSet("rm", flag.ExitOnError)
	corpusPath := fs.String("corpus", "corpus.json", "corpus file")
	ids := fs.String("ids", "", "comma-separated workflow IDs to remove")
	out := fs.String("out", "", "output corpus file (default: overwrite -corpus)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ids == "" {
		return fmt.Errorf("rm: no -ids given")
	}

	eng, err := newEngine(*corpusPath)
	if err != nil {
		return err
	}
	var muts []wfsim.Mutation
	for _, id := range strings.Split(*ids, ",") {
		muts = append(muts, wfsim.RemoveWorkflow(strings.TrimSpace(id)))
	}
	return commit(eng, muts, *corpusPath, *out, "removed %d workflows: %d remain at generation %d, written to %s\n")
}
