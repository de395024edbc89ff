package wfsim

import (
	"context"
	"testing"

	"repro/internal/index"
	"repro/internal/measures"
	"repro/internal/search"
)

// BenchmarkLabelSetDuplicates is the label-set-heavy full pair scan: the
// pure label-set measure over every pair of a corpus, where the interned
// representation replaces per-pair canonical-set construction and hashing
// with a 256-bit popcount prescreen plus one sorted merge over []uint32.
// No score cache: every iteration pays the full scan. The "reference" arm is
// the brute-force reference (every pair on one goroutine, no bound or pool).
func BenchmarkLabelSetDuplicates(b *testing.B) {
	const corpusSize = 10000
	c := benchCorpusN(b, corpusSize)
	ctx := context.Background()
	check := func(b *testing.B, pairs []Pair) {
		if len(pairs) == 0 {
			b.Fatal("no high-overlap pairs in bench corpus")
		}
	}
	b.Run("interned", func(b *testing.B) {
		eng, err := New(c.Repo, WithMeasure("LS", measures.LabelSets{}))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pairs, _, err := eng.Duplicates(ctx, 0.9, DuplicateOptions{Measure: "LS"})
			if err != nil {
				b.Fatal(err)
			}
			check(b, pairs)
		}
	})
	b.Run("reference", func(b *testing.B) {
		ref := newBruteForce(c.Repo.Snapshot().Workflows())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			check(b, ref.duplicates(measures.LabelSets{}, 0.9))
		}
	})
}

// BenchmarkIndexBuild times a full inverted-index build over the corpus.
// Interned workflows contribute their cached sorted label sets directly;
// the string path (unresolved clones) canonicalizes and interns every label
// per insert.
func BenchmarkIndexBuild(b *testing.B) {
	const corpusSize = 10000
	c := benchCorpusN(b, corpusSize)
	run := func(b *testing.B, wfs []*Workflow) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx := index.Build(search.List(wfs))
			if idx.Size() != corpusSize {
				b.Fatalf("index holds %d workflows", idx.Size())
			}
		}
	}
	b.Run("interned", func(b *testing.B) { run(b, c.Repo.Snapshot().Workflows()) })
	b.Run("string", func(b *testing.B) {
		wfs := make([]*Workflow, len(c.Repo.Snapshot().Workflows()))
		for i, wf := range c.Repo.Snapshot().Workflows() {
			wfs[i] = wf.Clone()
		}
		run(b, wfs)
	})
}

// BenchmarkBootReintern times engine boot over a stored corpus: recovery
// reads the snapshot and resolves every recovered workflow against a fresh
// symbol table — the pass that rebuilds the process-local IDs at each start.
func BenchmarkBootReintern(b *testing.B) {
	const corpusSize = 2000
	c := benchCorpusN(b, corpusSize)
	quiet := StorageWarnings(func(string, ...any) {})
	dir := b.TempDir()
	// Seeding a fresh directory persists the corpus as the baseline snapshot.
	eng, err := New(c.Repo, WithStorage(dir, quiet))
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := New(mustRepo(b), WithStorage(dir, quiet))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if eng.Read().Frontier().Workflows != corpusSize {
			b.Fatalf("boot recovered %d workflows, want %d", eng.Read().Frontier().Workflows, corpusSize)
		}
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func mustRepo(b *testing.B) *Repository {
	b.Helper()
	repo, err := NewRepository()
	if err != nil {
		b.Fatal(err)
	}
	return repo
}
