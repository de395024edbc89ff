package wfsim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/storage"
)

// storageWorkflow builds a small valid workflow for storage tests.
func storageWorkflow(id string, labels ...string) *Workflow {
	w := NewWorkflow(id)
	w.Annotations.Title = "wf " + id
	prev := -1
	for i, label := range labels {
		idx := w.AddModule(&Module{ID: fmt.Sprintf("m%d", i), Label: label, Type: TypeWSDL})
		if prev >= 0 {
			if err := w.AddEdge(prev, idx); err != nil {
				panic(err)
			}
		}
		prev = idx
	}
	return w
}

func newStoredEngine(t *testing.T, dir string, extra ...Option) *Engine {
	t.Helper()
	repo, err := NewRepository()
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]Option{WithStorage(dir), WithIndex(1), WithScoreCache(1 << 12)}, extra...)
	eng, err := New(repo, opts...)
	if err != nil {
		t.Fatalf("New with storage: %v", err)
	}
	return eng
}

func ingestFixture(t *testing.T, eng *Engine) {
	t.Helper()
	ctx := context.Background()
	if _, err := eng.Apply(ctx,
		AddWorkflow(storageWorkflow("a", "fetch_sequence", "run_blast")),
		AddWorkflow(storageWorkflow("b", "fetch_sequence", "plot_hits")),
	); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(ctx,
		AddWorkflow(storageWorkflow("c", "load_image", "segment_cells")),
	); err != nil {
		t.Fatal(err)
	}
}

// TestStorageRestartRoundTrip is the headline durability contract: ingest,
// close, reopen from the same directory — same generation, same query
// results, and a warm score cache that answers the repeat query without a
// single measure evaluation.
func TestStorageRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	eng1 := newStoredEngine(t, dir)
	ingestFixture(t, eng1)
	res1, stats1, err := eng1.SearchID(ctx, "a", SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1) == 0 || res1[0].ID != "b" {
		t.Fatalf("pre-restart search results %v, want b first", res1)
	}
	gen1 := eng1.Read().Frontier().Generation
	if err := eng1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	eng2 := newStoredEngine(t, dir)
	defer eng2.Close()
	if got := eng2.Read().Frontier().Generation; got != gen1 {
		t.Fatalf("restart generation %d, want %d", got, gen1)
	}
	st, ok := eng2.StorageStats()
	if !ok {
		t.Fatal("engine with WithStorage reports no storage stats")
	}
	if st.Recovery.Generation != gen1 || st.Recovery.Workflows != 3 {
		t.Fatalf("recovery stats %+v, want generation %d with 3 workflows", st.Recovery, gen1)
	}
	if st.WarmCacheEntries == 0 {
		t.Fatal("no warm cache entries re-seeded after restart")
	}

	res2, stats2, err := eng2.SearchID(ctx, "a", SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2) != len(res1) {
		t.Fatalf("restart search returned %d results, want %d", len(res2), len(res1))
	}
	for i := range res2 {
		if res2[i].ID != res1[i].ID || res2[i].Similarity != res1[i].Similarity {
			t.Fatalf("restart result %d = %+v, want %+v", i, res2[i], res1[i])
		}
	}
	if stats2.Generation != stats1.Generation {
		t.Fatalf("restart served generation %d, want %d", stats2.Generation, stats1.Generation)
	}
	if stats2.CacheMisses != 0 || stats2.CacheHits == 0 {
		t.Fatalf("restart search was not warm: %d hits / %d misses, want all hits", stats2.CacheHits, stats2.CacheMisses)
	}
}

// TestStorageCrashRestart skips Close entirely — the kill -9 path: the
// fsynced log alone must reproduce the repository.
func TestStorageCrashRestart(t *testing.T) {
	dir := t.TempDir()
	eng1 := newStoredEngine(t, dir)
	ingestFixture(t, eng1)
	gen1 := eng1.Read().Frontier().Generation
	// No Close: the daemon was killed. (The still-open file handle is
	// dropped with eng1; every commit was already fsynced.)

	eng2 := newStoredEngine(t, dir)
	defer eng2.Close()
	if got := eng2.Read().Frontier().Generation; got != gen1 {
		t.Fatalf("crash-restart generation %d, want %d", got, gen1)
	}
	res, _, err := eng2.SearchID(context.Background(), "a", SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ID != "b" {
		t.Fatalf("crash-restart search results %v, want b first", res)
	}
	if st, _ := eng2.StorageStats(); st.Recovery.SnapshotLoaded {
		t.Fatal("crash restart claims a snapshot was loaded; none was ever written")
	}
}

// TestStorageCompactionThreshold proves Apply-driven compaction: with a
// 2-record threshold every other batch checkpoints, the log stays short,
// and restarts recover from snapshot + tail.
func TestStorageCompactionThreshold(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	eng := newStoredEngine(t, dir, WithStorage(dir, StorageCompaction(-1, 2)))
	for i := 0; i < 5; i++ {
		if _, err := eng.Apply(ctx, AddWorkflow(storageWorkflow(fmt.Sprintf("w%d", i), "step_a", "step_b"))); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := eng.StorageStats()
	if st.Compactions == 0 {
		t.Fatalf("no compactions after 5 commits with a 2-record threshold: %+v", st)
	}
	if st.LogRecords >= 5 {
		t.Fatalf("log never truncated: %d records", st.LogRecords)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2 := newStoredEngine(t, dir)
	defer eng2.Close()
	if eng2.Read().Frontier().Generation != 5 || eng2.Read().Frontier().Workflows != 5 {
		t.Fatalf("recovered generation %d size %d, want 5/5", eng2.Read().Frontier().Generation, eng2.Read().Frontier().Workflows)
	}
	st2, _ := eng2.StorageStats()
	if !st2.Recovery.SnapshotLoaded {
		t.Fatal("recovery after compaction did not load a snapshot")
	}
}

// TestStorageRefusesNonEmptyRepository pins the double-load guard at the
// engine layer: recovering stored state into a repository that already has
// contents must fail construction.
func TestStorageRefusesNonEmptyRepository(t *testing.T) {
	dir := t.TempDir()
	eng := newStoredEngine(t, dir)
	ingestFixture(t, eng)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	repo, err := NewRepository(storageWorkflow("pre", "loaded_step"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(repo, WithStorage(dir)); err == nil || !strings.Contains(err.Error(), "refusing to recover") {
		t.Fatalf("New over stored state with non-empty repository: %v, want refusal", err)
	}
}

// TestStoragePreloadBaseline: a pre-populated repository adopting a fresh
// directory persists its contents as the baseline snapshot.
func TestStoragePreloadBaseline(t *testing.T) {
	dir := t.TempDir()
	repo, err := NewRepository(storageWorkflow("pre", "loaded_step", "second_step"))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(repo, WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(context.Background(), AddWorkflow(storageWorkflow("post", "third_step"))); err != nil {
		t.Fatal(err)
	}
	// Crash (no Close): both the baseline snapshot and the logged batch
	// must survive.
	eng2 := newStoredEngine(t, dir)
	defer eng2.Close()
	if eng2.Read().Frontier().Workflows != 2 || eng2.Read().Get("pre") == nil || eng2.Read().Get("post") == nil {
		t.Fatalf("recovered %d workflows, want pre and post", eng2.Read().Frontier().Workflows)
	}
}

// TestApplyAfterCloseFails: Close flushes and fences; later mutations must
// not silently succeed in RAM while the log no longer records them.
func TestApplyAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	eng := newStoredEngine(t, dir, testShardOpts(t)...)
	ingestFixture(t, eng)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	_, err := eng.Apply(context.Background(), AddWorkflow(storageWorkflow("late", "too_late")))
	if !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("Apply after Close: %v, want storage.ErrClosed", err)
	}
	if eng.Read().Get("late") != nil {
		t.Fatal("rejected mutation is visible in memory")
	}
	// Reads still work after Close.
	if _, _, err := eng.SearchID(context.Background(), "a", SearchOptions{K: 3}); err != nil {
		t.Fatalf("read after Close: %v", err)
	}
}

// TestHasStoredState drives the daemon's preload-conflict check.
func TestHasStoredState(t *testing.T) {
	dir := t.TempDir()
	if has, err := HasStoredState(dir); err != nil || has {
		t.Fatalf("empty dir: has=%v err=%v", has, err)
	}
	eng := newStoredEngine(t, dir)
	if has, err := HasStoredState(dir); err != nil || has {
		t.Fatalf("opened-but-unwritten dir: has=%v err=%v, want false", has, err)
	}
	ingestFixture(t, eng)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if has, err := HasStoredState(dir); err != nil || !has {
		t.Fatalf("dir with committed state: has=%v err=%v, want true", has, err)
	}
}

// TestWarmCacheStaleOnDifferentProjection: a restart with a different
// projection configuration must boot cold, not serve scores computed under
// another projection.
func TestWarmCacheStaleOnDifferentProjection(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	eng1 := newStoredEngine(t, dir)
	ingestFixture(t, eng1)
	if _, _, err := eng1.SearchID(ctx, "a", SearchOptions{K: 5}); err != nil {
		t.Fatal(err)
	}
	if err := eng1.Close(); err != nil {
		t.Fatal(err)
	}

	eng2 := newStoredEngine(t, dir, WithRepositoryKnowledge(0.5))
	defer eng2.Close()
	if st, _ := eng2.StorageStats(); st.WarmCacheEntries != 0 {
		t.Fatalf("warm cache re-seeded across a projection change: %d entries", st.WarmCacheEntries)
	}
}

// dirListing records every file under dir with its size, to prove a refused
// open left the directory untouched.
func dirListing(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			out[path] = info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFlatDirectoryIsOneShardLayout is the on-disk compatibility contract: a
// flat data directory written straight through the storage layer — commit
// hook, log, snapshot compaction, warm-cache file, exactly what a
// single-repository engine left behind — reopens as the one-shard layout
// with the same generation, results and warm entries, and no layout marker
// appears. The shard count of either layout cannot be changed by reopening:
// both mismatches are refused without touching the directory.
func TestFlatDirectoryIsOneShardLayout(t *testing.T) {
	ctx := context.Background()
	wfs := func() []*Workflow {
		return []*Workflow{
			storageWorkflow("a", "fetch_sequence", "run_blast"),
			storageWorkflow("b", "fetch_sequence", "plot_hits"),
			storageWorkflow("c", "load_image", "segment_cells"),
		}
	}
	// The reference: a RAM engine over the same corpus, and every pair score
	// it computes (the warm entries a closing engine would have persisted).
	seed, err := NewRepository(wfs()...)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(seed, WithIndex(1))
	if err != nil {
		t.Fatal(err)
	}
	pairs, dstats, err := ref.Duplicates(ctx, 0, DuplicateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm := make([]storage.CachedScore, len(pairs))
	for i, p := range pairs {
		warm[i] = storage.CachedScore{Measure: dstats.Measure, A: p.A, B: p.B, Score: p.Similarity}
	}

	flat := t.TempDir()
	repo, err := NewRepository()
	if err != nil {
		t.Fatal(err)
	}
	store, _, _, err := storage.Open(flat, storage.Options{NoSync: true, Symtab: repo.Symtab()})
	if err != nil {
		t.Fatal(err)
	}
	repo.SetCommitHook(func(gen uint64, ops []corpus.Op) error { return store.Commit(gen, ops) })
	for _, wf := range wfs() { // one commit each: generation 3
		if _, err := repo.ApplyBatch([]corpus.Op{{Kind: corpus.OpAdd, ID: wf.ID, Workflow: wf}}); err != nil {
			t.Fatal(err)
		}
		if wf.ID == "b" { // snapshot at generation 2, one log record after it
			if err := store.Compact(repo.Generation(), repo.Snapshot().Workflows()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := store.SaveScoreCache(repo.Generation(), "configured", warm); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Flat directory, n >= 2: refused, nothing written.
	before := dirListing(t, flat)
	empty, _ := NewRepository()
	if _, err := New(empty, WithShards(2), WithStorage(flat)); err == nil || !strings.Contains(err.Error(), "unsharded") {
		t.Errorf("2-shard open of a flat directory: err = %v, want unsharded-layout refusal", err)
	}
	if after := dirListing(t, flat); !reflect.DeepEqual(before, after) {
		t.Errorf("refused open changed the flat directory:\nbefore %v\nafter  %v", before, after)
	}

	// Flat directory, n = 1: the stored engine comes back.
	eng := newStoredEngine(t, flat)
	if got := eng.Read().Frontier().Generation; got != 3 {
		t.Errorf("reopened generation %d, want 3", got)
	}
	st, _ := eng.StorageStats()
	if !st.Recovery.SnapshotLoaded || st.Recovery.ReplayedRecords != 1 || st.Recovery.Workflows != 3 {
		t.Errorf("recovery %+v, want snapshot + 1 replayed record = 3 workflows", st.Recovery)
	}
	if st.WarmCacheEntries != len(warm) {
		t.Errorf("%d warm entries re-seeded, want %d", st.WarmCacheEntries, len(warm))
	}
	assertSearchesMatch(t, eng, wfs(), "a", "b", "c")
	if _, stats, err := eng.SearchID(ctx, "a", SearchOptions{K: 5}); err != nil {
		t.Fatal(err)
	} else if stats.CacheMisses != 0 || stats.CacheHits == 0 {
		t.Errorf("search over the warm entries: %d hits / %d misses, want all hits", stats.CacheHits, stats.CacheMisses)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(flat, "shards.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("one-shard engine left a layout marker in the flat directory (stat err = %v)", err)
	}

	// Marker recording N, n = 1: refused, nothing written.
	sharded := t.TempDir()
	engN, err := New(seed, WithShards(3), WithStorage(sharded, StorageNoSync()))
	if err != nil {
		t.Fatal(err)
	}
	if err := engN.Close(); err != nil {
		t.Fatal(err)
	}
	before = dirListing(t, sharded)
	if _, err := New(empty, WithStorage(sharded)); err == nil || !strings.Contains(err.Error(), "3 shards") {
		t.Errorf("1-shard open of a 3-shard directory: err = %v, want refusal naming 3 shards", err)
	}
	if after := dirListing(t, sharded); !reflect.DeepEqual(before, after) {
		t.Errorf("refused open changed the sharded directory:\nbefore %v\nafter  %v", before, after)
	}
}

// goldenWorkflow builds one workflow of the corpus the golden directories
// hold (the smoke-test fixture: a and b share a label, c is unrelated).
func goldenWorkflow(id, title, typ string, labels ...string) *Workflow {
	w := NewWorkflow(id)
	w.Annotations.Title = title
	for i, label := range labels {
		idx := w.AddModule(&Module{ID: fmt.Sprintf("m%d", i+1), Label: label, Type: typ})
		if i > 0 {
			if err := w.AddEdge(idx-1, idx); err != nil {
				panic(err)
			}
		}
	}
	return w
}

// TestGoldenDirectoriesReopen opens copies of two data directories written
// by the binaries of the last commit that persisted symbol tables (see
// internal/storage/testdata/golden/README.md): a flat directory under the
// "…1" magics, and a crash-stopped 2-shard directory under the "…2" magics
// whose snapshot embeds a symbol list and whose log records carry symbol
// deltas. Both are the one storage format: they must open without refusal,
// at the recorded generation vector, and serve exactly what a fresh engine
// over the same workflows serves — then take a commit, close and reopen.
func TestGoldenDirectoriesReopen(t *testing.T) {
	ctx := context.Background()
	corpus := func() []*Workflow {
		return []*Workflow{
			goldenWorkflow("a", "blast a", TypeWSDL, "fetch_sequence", "run_blast"),
			goldenWorkflow("b", "blast b", TypeWSDL, "fetch_sequence", "plot_hits"),
			goldenWorkflow("c", "imaging", TypeTool, "load_image", "segment_cells"),
		}
	}
	for _, tc := range []struct {
		name   string
		shards int
		gens   []uint64
	}{
		{"v1-flat", 1, []uint64{2}},
		{"v2-2shard-crash", 2, []uint64{1, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(filepath.Join("..", "..", "internal", "storage", "testdata", "golden", tc.name))); err != nil {
				t.Fatal(err)
			}
			eng := newStoredEngine(t, dir, WithShards(tc.shards))
			if got := eng.Read().Frontier().Generations; !reflect.DeepEqual(got, tc.gens) {
				t.Fatalf("opened at generations %v, want %v", got, tc.gens)
			}
			if eng.Read().Frontier().Workflows != 3 {
				t.Fatalf("opened with %d workflows, want 3", eng.Read().Frontier().Workflows)
			}
			assertSearchesMatch(t, eng, corpus(), "a", "b", "c")

			d := goldenWorkflow("d", "alignment", TypeWSDL, "fetch_sequence", "align_reads")
			if _, err := eng.Apply(ctx, AddWorkflow(d)); err != nil {
				t.Fatal(err)
			}
			wantGens := eng.Read().Frontier().Generations
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			eng2 := newStoredEngine(t, dir, WithShards(tc.shards))
			defer eng2.Close()
			if got := eng2.Read().Frontier().Generations; !reflect.DeepEqual(got, wantGens) {
				t.Fatalf("reopened at generations %v, want %v", got, wantGens)
			}
			assertSearchesMatch(t, eng2, append(corpus(), d), "a", "b", "c", "d")
		})
	}
}
