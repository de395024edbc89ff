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

// TestEngineMatchesBruteForce holds the engine to the brute-force reference
// (bruteForce): for every measure of the Compare spread, and for pw3 and gw1,
// whose attributes beyond labels and types (scripts, descriptions, services,
// Galaxy tool ids and parameters) compare by symbol too, Search, Duplicates
// and Cluster at 1, 2 and 4 shards, with an index, a score cache and the
// engine's memo, return what comparing every pair under the plain measure
// returns, bit for bit. Searches run Exact, because the reference has no
// index; index on/off is TestShardedSearchEquivalence's to cover.
func TestEngineMatchesBruteForce(t *testing.T) {
	checkInternedEquivalence(t, internTestCorpus(t), append(CompareMeasures(), "MS_np_ta_pw3", "MS_np_ta_gw1"))
	p := GalaxyProfile()
	p.Workflows, p.Clusters = 36, 5
	galaxy, err := GenerateCorpus(p, 17)
	if err != nil {
		t.Fatal(err)
	}
	checkInternedEquivalence(t, galaxy, []string{"MS_np_ta_gw1", "MS_ip_te_gw1"})
}

// checkInternedEquivalence holds an engine over c to the reference under
// each of the named measures.
func checkInternedEquivalence(t *testing.T, c *GeneratedCorpus, names []string) {
	t.Helper()
	ctx := context.Background()
	ref := newBruteForce(c.Repo.Workflows())
	queries := []*Workflow{c.Repo.Workflows()[0], c.Repo.Workflows()[7], c.Repo.Workflows()[20]}

	// The reference's answers, once per measure.
	type answers struct {
		search   [][]Result
		dupes    []Pair
		clusters string
	}
	want := map[string]answers{}
	for _, name := range names {
		m := ref.measure(t, name)
		var a answers
		for _, q := range queries {
			a.search = append(a.search, ref.search(m, q, 12))
		}
		a.dupes = ref.duplicates(m, 0.45)
		a.clusters = clusterKey(ref.cluster(m, 0.5))
		want[name] = a
	}

	for _, n := range []int{1, 2, 4} {
		eng, err := New(c.Repo, WithShards(n), WithIndex(2), WithScoreCache(1<<14))
		if err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
		for _, m := range names {
			w := want[m]
			for i, q := range queries {
				// The second pass is served from ID-keyed caches and must not
				// change a bit.
				for pass := 0; pass < 2; pass++ {
					got, _, err := eng.SearchID(ctx, q.ID, SearchOptions{K: 12, Measure: m, Exact: true})
					if err != nil {
						t.Fatalf("%d shards SearchID(%s, %s): %v", n, q.ID, m, err)
					}
					if diff := sameResults(got, w.search[i]); diff != "" {
						t.Fatalf("%s at %d shards, query %s, pass %d: %s", m, n, q.ID, pass, diff)
					}
				}
			}

			pN, _, err := eng.Duplicates(ctx, 0.45, DuplicateOptions{Measure: m})
			if err != nil {
				t.Fatalf("%d shards Duplicates(%s): %v", n, m, err)
			}
			if len(pN) != len(w.dupes) {
				t.Fatalf("%s at %d shards: %d duplicate pairs vs %d in the reference", m, n, len(pN), len(w.dupes))
			}
			for i := range w.dupes {
				if pN[i] != w.dupes[i] {
					t.Fatalf("%s at %d shards: pair %d = %+v, reference %+v", m, n, i, pN[i], w.dupes[i])
				}
			}

			cN, err := eng.Cluster(ctx, ClusterOptions{Measure: m})
			if err != nil {
				t.Fatalf("%d shards Cluster(%s): %v", n, m, err)
			}
			if kN := clusterKey(cN.Clusters); kN != w.clusters {
				t.Fatalf("%s at %d shards: clustering differs\nreference: %s\nengine:    %s", m, n, w.clusters, kN)
			}
		}
	}
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
	assertSameSearch(t, eng2, eng3, "d", SearchOptions{K: 5})
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
