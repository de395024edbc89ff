package wfsim

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/shard"
	"repro/internal/storage"
)

// internTestCorpus is small enough that the full measure sweep (including
// budgeted graph edit distance) over Search, Duplicates and Cluster stays
// fast, while still spanning several clusters and shard boundaries.
func internTestCorpus(t testing.TB) *GeneratedCorpus {
	t.Helper()
	p := TavernaProfile()
	p.Workflows = 36
	p.Clusters = 5
	c, err := GenerateCorpus(p, 17)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// stringBaselineEngine builds an engine whose repository has interning
// disabled (AdoptSymtab(nil)) over deep clones of the corpus — the exact
// pre-intern string semantics every ID fast path must reproduce bit for
// bit. Clones drop all derived state, so no symbol ID leaks in.
func stringBaselineEngine(t *testing.T, c *GeneratedCorpus, opts ...Option) *Engine {
	t.Helper()
	base, err := NewRepository()
	if err != nil {
		t.Fatal(err)
	}
	if err := base.AdoptSymtab(nil); err != nil {
		t.Fatal(err)
	}
	for _, wf := range c.Repo.Workflows() {
		if err := base.Add(wf.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if base.Symtab() != nil {
		t.Fatal("baseline repository still interning")
	}
	eng, err := New(base, opts...)
	if err != nil {
		t.Fatal(err)
	}
	// The engine must keep the seed's mode: a baseline that silently
	// re-interned would compare the interned path against itself.
	for _, wf := range eng.Workflows() {
		if wf.Resolved() {
			t.Fatalf("baseline workflow %s carries an interned representation", wf.ID)
		}
	}
	return eng
}

// TestInternedEquivalenceWithStringBaseline is the tentpole's hard
// invariant: for every registered measure of the Compare spread, Search,
// Duplicates and Cluster on interned engines at 1, 2 and 4 shards return
// results bit-identical to the string baseline.
func TestInternedEquivalenceWithStringBaseline(t *testing.T) {
	ctx := context.Background()
	c := internTestCorpus(t)
	opts := []Option{WithIndex(2), WithScoreCache(1 << 14)}
	base := stringBaselineEngine(t, c, opts...)

	queries := []string{
		c.Repo.Workflows()[0].ID,
		c.Repo.Workflows()[7].ID,
		c.Repo.Workflows()[20].ID,
	}

	for _, n := range []int{1, 2, 4} {
		eng, err := New(c.Repo, append([]Option{WithShards(n)}, opts...)...)
		if err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
		for _, m := range CompareMeasures() {
			for _, q := range queries {
				assertSameSearch(t, base, eng, q, SearchOptions{K: 12, Measure: m})
				// Repeat: the second pass is served from ID-keyed caches
				// and must not change a bit.
				assertSameSearch(t, base, eng, q, SearchOptions{K: 12, Measure: m})
			}

			p0, _, err := base.Duplicates(ctx, 0.45, DuplicateOptions{Measure: m})
			if err != nil {
				t.Fatalf("baseline Duplicates(%s): %v", m, err)
			}
			pN, _, err := eng.Duplicates(ctx, 0.45, DuplicateOptions{Measure: m})
			if err != nil {
				t.Fatalf("%d shards Duplicates(%s): %v", n, m, err)
			}
			if len(p0) != len(pN) {
				t.Fatalf("%s at %d shards: %d duplicate pairs vs %d baseline", m, n, len(pN), len(p0))
			}
			for i := range p0 {
				if p0[i] != pN[i] {
					t.Fatalf("%s at %d shards: pair %d = %+v, baseline %+v", m, n, i, pN[i], p0[i])
				}
			}

			c0, err := base.Cluster(ctx, ClusterOptions{Measure: m})
			if err != nil {
				t.Fatalf("baseline Cluster(%s): %v", m, err)
			}
			cN, err := eng.Cluster(ctx, ClusterOptions{Measure: m})
			if err != nil {
				t.Fatalf("%d shards Cluster(%s): %v", n, m, err)
			}
			if k0, kN := clusterKey(c0.Clusters), clusterKey(cN.Clusters); k0 != kN {
				t.Fatalf("%s at %d shards: clustering differs\nbaseline: %s\ninterned: %s", m, n, k0, kN)
			}
		}
	}
}

// TestSymbolTableStableAcrossRestart proves the ID stability guarantee:
// after a clean restart and after a crash restart, the recovered symbol
// table is element-for-element identical to the live one (zero
// re-interning drift) and warm score-cache entries survive keyed by the
// recovered symbols.
func TestSymbolTableStableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	eng1 := newStoredEngine(t, dir)
	ingestFixture(t, eng1)
	if _, _, err := eng1.SearchID(ctx, "a", SearchOptions{K: 5}); err != nil {
		t.Fatal(err)
	}
	syms1 := engineSymbols(eng1)
	if len(syms1) < 2 {
		t.Fatalf("suspiciously small symbol table: %d entries", len(syms1))
	}
	if err := eng1.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean restart: snapshot/WAL symbols seed the table before the corpus
	// is re-resolved, so every ID comes back exactly as assigned.
	eng2 := newStoredEngine(t, dir)
	syms2 := engineSymbols(eng2)
	assertSameSymbols(t, "clean restart", syms1, syms2)
	st, ok := eng2.StorageStats()
	if !ok {
		t.Fatal("no storage stats")
	}
	if st.Recovery.SymbolsRecovered != len(syms1) {
		t.Errorf("recovery reports %d symbols, want %d", st.Recovery.SymbolsRecovered, len(syms1))
	}
	if st.Recovery.MigratedFormat {
		t.Error("current-format recovery flagged as migrated")
	}
	if st.WarmCacheEntries == 0 {
		t.Error("no warm score-cache entries survived the restart")
	}
	if _, stats, err := eng2.SearchID(ctx, "a", SearchOptions{K: 5}); err != nil {
		t.Fatal(err)
	} else if stats.CacheMisses != 0 || stats.CacheHits == 0 {
		t.Errorf("warm restart search not fully cached: %d hits / %d misses", stats.CacheHits, stats.CacheMisses)
	}

	// Crash restart: grow the table past the snapshot via one more commit,
	// then drop the engine without Close. The WAL symbol delta alone must
	// reproduce the extended table.
	if _, err := eng2.Apply(ctx, AddWorkflow(storageWorkflow("d", "novel_operation", "another_novel_step"))); err != nil {
		t.Fatal(err)
	}
	syms3 := engineSymbols(eng2)
	if len(syms3) <= len(syms1) {
		t.Fatalf("new workflow added no symbols: %d then %d", len(syms1), len(syms3))
	}
	// No Close: kill -9 semantics.

	eng3 := newStoredEngine(t, dir)
	defer eng3.Close()
	assertSameSymbols(t, "crash restart", syms3, engineSymbols(eng3))
}

// engineSymbols lists the engine's shared symbol table (every shard interns
// into the same one, so shard 0's is the deployment's).
func engineSymbols(e *Engine) []string {
	return e.coord.Shard(0).(*shard.Local).Symtab().Symbols()
}

func assertSameSymbols(t *testing.T, phase string, want, got []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: symbol table has %d entries, want %d", phase, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: symbol %d = %q, want %q: IDs drifted across restart", phase, i, got[i], want[i])
		}
	}
}

// TestLegacyLayoutMigration boots an engine over a pre-symbol-table data
// directory: the old layout must be migrated by re-interning the recovered
// labels — with a recovery warning, never a refusal — and serve results
// identical to a fresh engine over the same corpus.
func TestLegacyLayoutMigration(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	mk := func() []*Workflow {
		return []*Workflow{
			storageWorkflow("a", "fetch_sequence", "run_blast"),
			storageWorkflow("b", "fetch_sequence", "plot_hits"),
		}
	}
	if err := storage.WriteLegacyFixture(dir, 2, mk(), []*Workflow{storageWorkflow("c", "load_image", "segment_cells")}); err != nil {
		t.Fatal(err)
	}

	var warnings []string
	repo, err := NewRepository()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(repo,
		WithStorage(dir, StorageWarnings(func(format string, args ...any) {
			warnings = append(warnings, fmt.Sprintf(format, args...))
		})),
		WithIndex(1), WithScoreCache(1<<12))
	if err != nil {
		t.Fatalf("open over legacy layout: %v", err)
	}
	st, ok := eng.StorageStats()
	if !ok {
		t.Fatal("no storage stats")
	}
	if !st.Recovery.MigratedFormat {
		t.Error("legacy layout not reported as migrated")
	}
	if st.Recovery.Workflows != 3 || eng.Size() != 3 {
		t.Fatalf("recovered %d workflows (engine size %d), want 3", st.Recovery.Workflows, eng.Size())
	}
	found := false
	for _, w := range warnings {
		if strings.Contains(w, "legacy") && strings.Contains(w, "re-interning") {
			found = true
		}
	}
	if !found {
		t.Errorf("no legacy-migration warning emitted; warnings: %q", warnings)
	}

	// Results must match a fresh in-memory engine over the same corpus.
	fresh, err := NewRepository(append(mk(), storageWorkflow("c", "load_image", "segment_cells"))...)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(fresh, WithIndex(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"a", "b", "c"} {
		assertSameSearch(t, ref, eng, q, SearchOptions{K: 5})
	}

	// The first commit after migration persists the rebuilt table; a
	// subsequent restart must reproduce it without drift.
	if _, err := eng.Apply(ctx, AddWorkflow(storageWorkflow("d", "align_reads"))); err != nil {
		t.Fatal(err)
	}
	syms := engineSymbols(eng)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng2 := newStoredEngine(t, dir)
	defer eng2.Close()
	assertSameSymbols(t, "post-migration restart", syms, engineSymbols(eng2))
}
