package wfsim

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/symtab"
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

// TestWarmRestartRebuildsSymbols pins what a restart owes the symbol table
// now that IDs are process-local: nothing about it is on disk, boot rebuilds
// it from the recovered corpus (so symbols of removed workflows are gone),
// and warm score-cache entries — stored as workflow-ID strings — still
// re-seed, after a clean restart and with the un-checkpointed commit after a
// crash restart.
func TestWarmRestartRebuildsSymbols(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	eng1 := newStoredEngine(t, dir)
	ingestFixture(t, eng1)
	if _, err := eng1.Apply(ctx, AddWorkflow(storageWorkflow("gone", "short_lived_step"))); err != nil {
		t.Fatal(err)
	}
	if _, err := eng1.Apply(ctx, RemoveWorkflow("gone")); err != nil {
		t.Fatal(err)
	}
	if _, ok := engineSymtab(eng1).Lookup("short_lived_step"); !ok {
		t.Fatal("live table lost a symbol it interned")
	}
	if _, _, err := eng1.SearchID(ctx, "a", SearchOptions{K: 5}); err != nil {
		t.Fatal(err)
	}
	if err := eng1.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoSymbolKeys(t, dir)

	// Clean restart: warm, and the dead workflow's symbols were not revived.
	eng2 := newStoredEngine(t, dir)
	st, ok := eng2.StorageStats()
	if !ok {
		t.Fatal("no storage stats")
	}
	if st.WarmCacheEntries == 0 {
		t.Error("no warm score-cache entries survived the restart")
	}
	if _, stats, err := eng2.SearchID(ctx, "a", SearchOptions{K: 5}); err != nil {
		t.Fatal(err)
	} else if stats.CacheMisses != 0 || stats.CacheHits == 0 {
		t.Errorf("warm restart search not fully cached: %d hits / %d misses", stats.CacheHits, stats.CacheMisses)
	}
	tab := engineSymtab(eng2)
	for _, dead := range []string{"gone", "short_lived_step"} {
		if _, ok := tab.Lookup(dead); ok {
			t.Errorf("restart revived symbol %q of a workflow no longer in the corpus", dead)
		}
	}
	if _, ok := tab.Lookup("fetch_sequence"); !ok {
		t.Error("restart did not rebuild the symbols of the recovered corpus")
	}

	// Crash restart: one more commit, then drop the engine without Close.
	// The log alone must bring the workflow (and hence its symbols) back.
	if _, err := eng2.Apply(ctx, AddWorkflow(storageWorkflow("d", "novel_operation", "another_novel_step"))); err != nil {
		t.Fatal(err)
	}
	wantGens := eng2.Read().Frontier().Generations
	// No Close: kill -9 semantics.
	assertNoSymbolKeys(t, dir)

	eng3 := newStoredEngine(t, dir)
	defer eng3.Close()
	if got := eng3.Read().Frontier().Generations; !reflect.DeepEqual(got, wantGens) {
		t.Fatalf("crash restart at generations %v, want %v", got, wantGens)
	}
	if eng3.Read().Frontier().Workflows != 4 {
		t.Fatalf("crash restart recovered %d workflows, want 4", eng3.Read().Frontier().Workflows)
	}
	if _, ok := engineSymtab(eng3).Lookup("novel_operation"); !ok {
		t.Error("crash restart did not resolve the un-checkpointed workflow")
	}
	assertSearchesMatch(t, eng3, eng2.Read().Workflows(), "d")
}

// engineSymtab returns the engine's shared symbol table (every shard interns
// into the same one, so shard 0's is the deployment's).
func engineSymtab(e *Engine) *symtab.Table {
	return e.coord.Shard(0).Symtab()
}

// assertNoSymbolKeys fails if any snapshot or log under dir carries one of
// the JSON keys the persisted symbol table used.
func assertNoSymbolKeys(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if name := d.Name(); name != "wal.log" && !strings.HasSuffix(name, ".snap") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, key := range []string{`"symbols"`, `"symbase"`, `"syms"`} {
			if bytes.Contains(data, []byte(key)) {
				t.Errorf("%s carries a %s field", path, key)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
