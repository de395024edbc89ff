package wfsim

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// The tests in this file pin the score cache's keying rule: a cached score
// belongs to the two workflow revisions it was computed on, so a commit
// retires exactly the pairs it wrote a side of — no more (unrelated pairs
// keep hitting) and no less (no score of an earlier object is ever served).
// Counts are exact, over the 36-workflow corpus, at 1, 2 and 4 shards.

// fingerprintMeasure scores a pair by a hash of both sides' module labels
// and counts every real evaluation: any two contents score differently, so a
// stale score shows as a wrong value, and the counter proves which pairs the
// cache short-circuited. The engine always evaluates a pair in ID order, so
// the score is a function of the unordered pair.
type fingerprintMeasure struct {
	calls atomic.Int64
}

func (m *fingerprintMeasure) Name() string { return "fingerprint" }

func (m *fingerprintMeasure) Compare(a, b *Workflow) (float64, error) {
	m.calls.Add(1)
	h := fnv.New32a()
	for _, wf := range []*Workflow{a, b} {
		for _, mod := range wf.Modules {
			h.Write([]byte(mod.Label))
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	return float64(h.Sum32()) / (1 << 32), nil
}

// cacheTestShards is 1, 2 and 4, plus WFSIM_TEST_SHARDS when it names
// another count.
func cacheTestShards(t *testing.T) []int {
	counts := []int{1, 2, 4}
	if n := testShardCount(t); n > 0 && !slices.Contains(counts, n) {
		counts = append(counts, n)
	}
	return counts
}

// forCacheShards runs body as one subtest per shard count.
func forCacheShards(t *testing.T, body func(t *testing.T, shards int)) {
	for _, shards := range cacheTestShards(t) {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { body(t, shards) })
	}
}

// withID returns a copy of src under another ID.
func withID(src *Workflow, id string) *Workflow {
	c := src.Clone()
	c.ID = id
	return c
}

// variant is withID with content (and hence every fingerprint score) unique
// to tag.
func variant(src *Workflow, id, tag string) *Workflow {
	c := withID(src, id)
	c.Modules[0].Label = tag
	return c
}

// engineIDs returns the engine's corpus IDs in order.
func engineIDs(e *Engine) []string {
	var ids []string
	for _, wf := range e.Workflows() {
		ids = append(ids, wf.ID)
	}
	return ids
}

// cacheTwins is a cached engine and a cache-less twin over the same corpus,
// fed the same batches: every read is checked bit for bit against the twin,
// which is what "never stale" means.
type cacheTwins struct {
	t             *testing.T
	cached, plain *Engine
	fm            *fingerprintMeasure // the cached engine's evaluations
}

func newCacheTwins(t *testing.T, shards int, opts ...Option) *cacheTwins {
	t.Helper()
	tw := &cacheTwins{t: t, fm: &fingerprintMeasure{}}
	repo := internTestCorpus(t).Repo
	base := append([]Option{WithShards(shards)}, opts...)
	var err error
	if tw.cached, err = New(repo, append(base, WithScoreCache(1<<14), WithMeasure("fingerprint", tw.fm))...); err != nil {
		t.Fatal(err)
	}
	if tw.plain, err = New(repo, append(base, WithMeasure("fingerprint", &fingerprintMeasure{}))...); err != nil {
		t.Fatal(err)
	}
	return tw
}

// ids returns the corpus IDs in order.
func (tw *cacheTwins) ids() []string { return engineIDs(tw.cached) }

// apply commits the batch build describes to both engines. build runs once
// per engine: an engine takes ownership of the workflows it is given.
func (tw *cacheTwins) apply(build func(e *Engine) []Mutation) {
	tw.t.Helper()
	for _, e := range []*Engine{tw.cached, tw.plain} {
		if _, err := e.Apply(context.Background(), build(e)...); err != nil {
			tw.t.Fatal(err)
		}
	}
}

// duplicates scans every pair (threshold 0) on both engines, requires
// identical results, and returns the cached engine's pairs, stats and the
// number of pairs it really evaluated.
func (tw *cacheTwins) duplicates() ([]Pair, Stats, int) {
	tw.t.Helper()
	ctx := context.Background()
	before := tw.fm.calls.Load()
	got, stats, err := tw.cached.Duplicates(ctx, 0, DuplicateOptions{Measure: "fingerprint"})
	if err != nil {
		tw.t.Fatal(err)
	}
	evals := int(tw.fm.calls.Load() - before)
	want, _, err := tw.plain.Duplicates(ctx, 0, DuplicateOptions{Measure: "fingerprint"})
	if err != nil {
		tw.t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		tw.t.Fatalf("cached Duplicates diverges from the cache-less engine (stale score served):\ncached %v\nplain  %v", got, want)
	}
	return got, stats, evals
}

// search runs an exact SearchID over the whole corpus on both engines,
// requires identical results, and returns the cached engine's stats and
// evaluation count.
func (tw *cacheTwins) search(id string) (Stats, int) {
	tw.t.Helper()
	ctx := context.Background()
	opts := SearchOptions{Measure: "fingerprint", K: 1000, Exact: true}
	before := tw.fm.calls.Load()
	got, stats, err := tw.cached.SearchID(ctx, id, opts)
	if err != nil {
		tw.t.Fatal(err)
	}
	evals := int(tw.fm.calls.Load() - before)
	want, _, err := tw.plain.SearchID(ctx, id, opts)
	if err != nil {
		tw.t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		tw.t.Fatalf("cached SearchID(%s) diverges from the cache-less engine (stale score served):\ncached %v\nplain  %v", id, got, want)
	}
	return stats, evals
}

// wantCounts fails unless the read hit and missed exactly as stated and
// evaluated exactly its misses.
func (tw *cacheTwins) wantCounts(what string, stats Stats, evals, hits, misses int) {
	tw.t.Helper()
	if stats.CacheHits != hits || stats.CacheMisses != misses || evals != misses {
		tw.t.Errorf("%s: %d hits / %d misses / %d evaluations, want %d / %d / %d",
			what, stats.CacheHits, stats.CacheMisses, evals, hits, misses, misses)
	}
}

// TestCommitRetiresOnlyWrittenPairs: after a warm Duplicates, one batch of
// add + replace + remove makes the next Duplicates evaluate exactly the
// pairs with a side the batch wrote, and a Cluster right after evaluates
// nothing.
func TestCommitRetiresOnlyWrittenPairs(t *testing.T) {
	forCacheShards(t, func(t *testing.T, shards int) {
		tw := newCacheTwins(t, shards)
		ids := tw.ids()
		n := len(ids)
		_, stats, evals := tw.duplicates()
		tw.wantCounts("cold scan", stats, evals, 0, n*(n-1)/2)

		tw.apply(func(e *Engine) []Mutation {
			return []Mutation{
				AddWorkflow(variant(e.Workflow(ids[1]), "zz-added", "added_content")),
				ReplaceWorkflow(variant(e.Workflow(ids[2]), ids[8], "replaced_content")),
				RemoveWorkflow(ids[20]),
			}
		})
		n = tw.cached.Size()
		written := 2*n - 3 // (n-1) pairs per written workflow, their shared pair once
		_, stats, evals = tw.duplicates()
		tw.wantCounts("scan after add+replace+remove", stats, evals, n*(n-1)/2-written, written)

		ctx := context.Background()
		before := tw.fm.calls.Load()
		got, err := tw.cached.Cluster(ctx, ClusterOptions{Measure: "fingerprint"})
		if err != nil {
			t.Fatal(err)
		}
		if evals := tw.fm.calls.Load() - before; evals != 0 {
			t.Errorf("Cluster after the scan evaluated %d pairs, want 0", evals)
		}
		want, err := tw.plain.Cluster(ctx, ClusterOptions{Measure: "fingerprint"})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Clusters, want.Clusters) {
			t.Errorf("cached clustering diverges from the cache-less engine:\ncached %v\nplain  %v", got.Clusters, want.Clusters)
		}
	})
}

// TestSearchCacheSurvivesUnrelatedCommits: a repeated SearchID misses only
// the workflows written since its last run; replacing the query itself
// misses every pair; and no sequence of writes under one ID — remove and
// re-add, A→B→A, the stored pointer handed back — ever serves a score of an
// earlier object (search checks every result against the cache-less twin).
func TestSearchCacheSurvivesUnrelatedCommits(t *testing.T) {
	forCacheShards(t, func(t *testing.T, shards int) {
		tw := newCacheTwins(t, shards)
		ids := tw.ids()
		q, x := ids[0], ids[5]
		n := len(ids)
		stats, evals := tw.search(q)
		tw.wantCounts("cold search", stats, evals, 0, n-1)
		stats, evals = tw.search(q)
		tw.wantCounts("warm search", stats, evals, n-1, 0)

		tw.apply(func(e *Engine) []Mutation {
			return []Mutation{
				AddWorkflow(variant(e.Workflow(ids[1]), "zz-added", "added_content")),
				ReplaceWorkflow(variant(e.Workflow(ids[2]), ids[8], "replaced_content")),
				RemoveWorkflow(ids[20]),
			}
		})
		n = tw.cached.Size()
		stats, evals = tw.search(q)
		tw.wantCounts("search after a batch not touching the query", stats, evals, n-3, 2)

		tw.apply(func(e *Engine) []Mutation {
			return []Mutation{ReplaceWorkflow(variant(e.Workflow(ids[3]), q, "new_query_content"))}
		})
		stats, evals = tw.search(q)
		tw.wantCounts("search after replacing the query", stats, evals, 0, n-1)

		// One ID, many objects. Each step writes x once, so the search misses
		// exactly the pair (q, x) and hits the rest.
		origA := map[*Engine]*Workflow{tw.cached: tw.cached.Workflow(x), tw.plain: tw.plain.Workflow(x)}
		steps := []struct {
			name  string
			build func(e *Engine) []Mutation
		}{
			{"remove and re-add in one batch", func(e *Engine) []Mutation {
				return []Mutation{RemoveWorkflow(x), AddWorkflow(variant(e.Workflow(ids[4]), x, "readded_content"))}
			}},
			{"remove", func(e *Engine) []Mutation { return []Mutation{RemoveWorkflow(x)} }},
			{"re-add in a later batch", func(e *Engine) []Mutation {
				return []Mutation{AddWorkflow(variant(e.Workflow(ids[4]), x, "readded_again"))}
			}},
			{"replace with B", func(e *Engine) []Mutation {
				return []Mutation{ReplaceWorkflow(variant(e.Workflow(ids[6]), x, "content_b"))}
			}},
			// The very object the engine first stored under x: it carries a
			// revision, so the engine must commit a copy under a new one.
			{"replace with the original A object", func(e *Engine) []Mutation {
				return []Mutation{ReplaceWorkflow(origA[e])}
			}},
			{"replace with B again", func(e *Engine) []Mutation {
				return []Mutation{ReplaceWorkflow(variant(e.Workflow(ids[6]), x, "content_b"))}
			}},
			{"self-replace", func(e *Engine) []Mutation { return []Mutation{ReplaceWorkflow(e.Workflow(x))} }},
		}
		for _, step := range steps {
			tw.apply(step.build)
			stats, evals = tw.search(q)
			if step.name == "remove" {
				tw.wantCounts("search after "+step.name, stats, evals, n-2, 0)
				continue
			}
			tw.wantCounts("search after "+step.name, stats, evals, n-2, 1)
		}
		if got := tw.cached.Workflow(x); got == origA[tw.cached] || origA[tw.cached].Rev() == got.Rev() {
			t.Errorf("the engine re-adopted an object it had committed before (revision %d)", got.Rev())
		}
	})
}

// TestRepositoryKnowledgeCommitRetiresEveryPair: under
// WithRepositoryKnowledge the projection moves with the corpus (IDF), so the
// projector epoch — not the revisions — retires every cached score on every
// commit.
func TestRepositoryKnowledgeCommitRetiresEveryPair(t *testing.T) {
	forCacheShards(t, func(t *testing.T, shards int) {
		tw := newCacheTwins(t, shards, WithRepositoryKnowledge(0))
		n := tw.cached.Size()
		tw.duplicates()
		_, stats, evals := tw.duplicates()
		tw.wantCounts("warm scan", stats, evals, n*(n-1)/2, 0)

		ids := tw.ids()
		tw.apply(func(e *Engine) []Mutation {
			return []Mutation{AddWorkflow(variant(e.Workflow(ids[1]), "zz-added", "added_content"))}
		})
		n++
		_, stats, evals = tw.duplicates()
		tw.wantCounts("scan after a one-workflow commit", stats, evals, 0, n*(n-1)/2)
	})
}

// TestRandomScheduleMatchesCachelessEngine drives a seeded random schedule
// of batches, searches and pair scans through a cached and a cache-less
// engine, index on and off, under the default measure: results must be bit
// identical at every step.
func TestRandomScheduleMatchesCachelessEngine(t *testing.T) {
	p := TavernaProfile()
	p.Workflows = 36
	p.Clusters = 5
	poolCorpus, err := GenerateCorpus(p, 23)
	if err != nil {
		t.Fatal(err)
	}
	pool := poolCorpus.Repo.Workflows()
	forCacheShards(t, func(t *testing.T, shards int) {
		for _, indexed := range []bool{false, true} {
			opts := []Option{WithShards(shards)}
			if indexed {
				opts = append(opts, WithIndex(2))
			}
			repo := internTestCorpus(t).Repo
			cached, err := New(repo, append(opts, WithScoreCache(1<<14))...)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := New(repo, opts...)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			r := rand.New(rand.NewSource(int64(10*shards + len(opts))))
			live, gone := engineIDs(cached), []string(nil)
			take := func(from *[]string) string {
				i := r.Intn(len(*from))
				id := (*from)[i]
				*from = append((*from)[:i], (*from)[i+1:]...)
				return id
			}
			fresh := 0
			for step := 0; step < 40; step++ {
				at := fmt.Sprintf("indexed=%v step %d", indexed, step)
				switch r.Intn(3) {
				case 0: // one batch of 1–3 writes, the same content to both engines
					type write struct {
						kind, id string
						content  *Workflow
					}
					var batch []write
					for k := 1 + r.Intn(3); k > 0; k-- {
						w := write{content: pool[r.Intn(len(pool))]}
						switch c := r.Intn(4); {
						case c == 0 && len(gone) > 0:
							w.kind, w.id = "add", take(&gone)
							live = append(live, w.id)
						case c == 1 || len(live) < 8:
							fresh++
							w.kind, w.id = "add", fmt.Sprintf("new-%d", fresh)
							live = append(live, w.id)
						case c == 2:
							w.kind, w.id = "remove", take(&live)
							gone = append(gone, w.id)
						default:
							w.kind, w.id = "replace", live[r.Intn(len(live))]
						}
						batch = append(batch, w)
					}
					for _, e := range []*Engine{cached, plain} {
						var muts []Mutation
						for _, w := range batch {
							switch w.kind {
							case "add":
								muts = append(muts, AddWorkflow(withID(w.content, w.id)))
							case "replace":
								muts = append(muts, ReplaceWorkflow(withID(w.content, w.id)))
							default:
								muts = append(muts, RemoveWorkflow(w.id))
							}
						}
						if _, err := e.Apply(ctx, muts...); err != nil {
							t.Fatalf("%s: %v", at, err)
						}
					}
				case 1:
					q := live[r.Intn(len(live))]
					got, _, err := cached.SearchID(ctx, q, SearchOptions{K: 10})
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					want, _, err := plain.SearchID(ctx, q, SearchOptions{K: 10})
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: SearchID(%s) diverges from the cache-less engine:\ncached %v\nplain  %v", at, q, got, want)
					}
				default:
					got, _, err := cached.Duplicates(ctx, 0.3, DuplicateOptions{})
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					want, _, err := plain.Duplicates(ctx, 0.3, DuplicateOptions{})
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Duplicates diverges from the cache-less engine:\ncached %v\nplain  %v", at, got, want)
					}
				}
			}
			if cs := cached.CacheStats(); cs.Hits == 0 {
				t.Errorf("indexed=%v: the schedule never hit the cache; it exercised nothing", indexed)
			}
		}
	})
}

// TestWarmRestartSurvivesLastCommit: scan, commit one batch, close cleanly,
// reopen — the repeated scan evaluates only the pairs that batch wrote a
// side of (plus, at two or more shards, the cross-shard pairs: a shard's
// cache file vouches only for pairs it owns both sides of). A crash restart
// after one more commit ignores the cache file of every shard that commit
// touched.
func TestWarmRestartSurvivesLastCommit(t *testing.T) {
	forCacheShards(t, func(t *testing.T, shards int) {
		dir := t.TempDir()
		ctx := context.Background()
		open := func(seed *Repository) (*Engine, *fingerprintMeasure) {
			t.Helper()
			fm := &fingerprintMeasure{}
			eng, err := New(seed, WithShards(shards), WithStorage(dir, StorageNoSync()),
				WithScoreCache(1<<14), WithMeasure("fingerprint", fm))
			if err != nil {
				t.Fatal(err)
			}
			return eng, fm
		}
		empty := func() *Repository {
			repo, err := NewRepository()
			if err != nil {
				t.Fatal(err)
			}
			return repo
		}
		scan := func(eng *Engine) ([]Pair, Stats) {
			t.Helper()
			pairs, stats, err := eng.Duplicates(ctx, 0, DuplicateOptions{Measure: "fingerprint"})
			if err != nil {
				t.Fatal(err)
			}
			return pairs, stats
		}

		eng1, _ := open(internTestCorpus(t).Repo)
		ids := engineIDs(eng1)
		scan(eng1)
		written := map[string]bool{ids[8]: true, "zz-added": true}
		if _, err := eng1.Apply(ctx,
			ReplaceWorkflow(variant(eng1.Workflow(ids[2]), ids[8], "replaced_content")),
			AddWorkflow(variant(eng1.Workflow(ids[1]), "zz-added", "added_content")),
		); err != nil {
			t.Fatal(err)
		}
		if err := eng1.Close(); err != nil {
			t.Fatal(err)
		}
		// The reference: what a process that never restarted reads.
		want, _ := scan(eng1)

		eng2, fm2 := open(empty())
		ring := eng2.coord.Ring()
		cold := 0 // pairs the restart owes an evaluation
		for _, p := range want {
			if written[p.A] || written[p.B] || ring.Owner(p.A) != ring.Owner(p.B) {
				cold++
			}
		}
		got, stats := scan(eng2)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("restart changed the scan:\nbefore %v\nafter  %v", want, got)
		}
		if evals := int(fm2.calls.Load()); stats.CacheMisses != cold || evals != cold || stats.CacheHits != len(want)-cold {
			t.Errorf("scan after warm restart: %d hits / %d misses / %d evaluations, want %d / %d / %d",
				stats.CacheHits, stats.CacheMisses, evals, len(want)-cold, cold, cold)
		}

		// Crash: one more commit, no Close. The touched shard's cache file is
		// now a generation behind and must not be loaded.
		gensBefore := eng2.Generations()
		if _, err := eng2.Apply(ctx, ReplaceWorkflow(variant(eng2.Workflow(ids[3]), ids[9], "crash_content"))); err != nil {
			t.Fatal(err)
		}
		want, _ = scan(eng2)
		eng3, _ := open(empty())
		defer eng3.Close()
		for i, si := range eng3.ShardStats() {
			if si.Generation != gensBefore[i] && si.Storage.WarmCacheEntries != 0 {
				t.Errorf("shard %d re-seeded %d scores from a cache file older than its recovered generation", i, si.Storage.WarmCacheEntries)
			}
		}
		if got, _ := scan(eng3); !reflect.DeepEqual(got, want) {
			t.Fatalf("crash restart changed the scan:\nbefore %v\nafter  %v", want, got)
		}
	})
}

// TestSelfReplaceIsRaceClean: handing the engine its own stored object —
// as a replace, or re-added after a remove while readers still pin it —
// must not resolve or stamp that object in place: pinned readers share it.
// Run under -race; at every step the stored content is unchanged, so every
// search must return the first search's results.
func TestSelfReplaceIsRaceClean(t *testing.T) {
	eng := mutEngine(t, WithIndex(1), WithScoreCache(256), WithMeasure("content", &contentMeasure{}))
	ctx := context.Background()
	opts := SearchOptions{Measure: "content", K: 5}
	want, _, err := eng.SearchID(ctx, "w2", opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for rd := 0; rd < 4; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// w1 is briefly absent between a remove and its re-add: a
				// search by it may fail, a search by w2 may miss it.
				_, _, _ = eng.SearchID(ctx, "w1", opts)
				got, _, err := eng.SearchID(ctx, "w2", opts)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) == len(want) && !reflect.DeepEqual(got, want) {
					t.Errorf("search during self-replaces returned %v, want %v", got, want)
					return
				}
			}
		}()
	}
	first := eng.Workflow("w1")
	for i := 0; i < 200; i++ {
		stored := eng.Workflow("w1")
		if i%4 == 3 {
			if _, err := eng.Apply(ctx, RemoveWorkflow("w1")); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Apply(ctx, AddWorkflow(stored)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := eng.Apply(ctx, ReplaceWorkflow(stored)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := eng.Workflow("w1"); got == first || got.Rev() == first.Rev() {
		t.Errorf("the engine kept restamping one shared object (revision %d)", got.Rev())
	}
	if got, _, err := eng.SearchID(ctx, "w2", opts); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("search after self-replaces = %v (%v), want %v", got, err, want)
	}
}
