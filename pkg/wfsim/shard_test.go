package wfsim

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

func shardTestWF(id string, labels ...string) *Workflow {
	wf := NewWorkflow(id)
	for i, l := range labels {
		wf.Modules = append(wf.Modules, &Module{Label: l, Type: TypeBeanshell})
		if i > 0 {
			wf.Edges = append(wf.Edges, Edge{From: i - 1, To: i})
		}
	}
	return wf
}

// shardedPair builds a 1-shard and an n-shard engine over the same generated
// corpus and identical options (error messages call them "unsharded" and
// "sharded"). Both must be constructed before any Apply: an engine
// partitions the seed repository at construction time.
func shardedPair(t *testing.T, n int, opts ...Option) (*Engine, *Engine, *GeneratedCorpus) {
	t.Helper()
	c := testCorpus(t)
	e1, err := New(c.Repo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	eN, err := New(c.Repo, append([]Option{WithShards(n)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return e1, eN, c
}

// covered is the number of pairs a read accounted for, one way or another.
// How they split between scored and bounded depends on worker scheduling
// and on the shard count; the sum does not.
func covered(s Stats) int { return s.Scored + s.Bounded + s.Pruned + s.Skipped }

// assertSameSearch requires identical search results (IDs and similarities,
// bit for bit) from both engines for the given query ID.
func assertSameSearch(t *testing.T, e1, eN *Engine, queryID string, opts SearchOptions) {
	t.Helper()
	r1, s1, err := e1.SearchID(context.Background(), queryID, opts)
	if err != nil {
		t.Fatalf("unsharded SearchID(%s): %v", queryID, err)
	}
	rN, sN, err := eN.SearchID(context.Background(), queryID, opts)
	if err != nil {
		t.Fatalf("sharded SearchID(%s): %v", queryID, err)
	}
	if len(r1) != len(rN) {
		t.Fatalf("query %s: %d results sharded vs %d unsharded", queryID, len(rN), len(r1))
	}
	for i := range r1 {
		if r1[i].ID != rN[i].ID || r1[i].Similarity != rN[i].Similarity {
			t.Fatalf("query %s rank %d: sharded (%s, %v) vs unsharded (%s, %v)",
				queryID, i, rN[i].ID, rN[i].Similarity, r1[i].ID, r1[i].Similarity)
		}
	}
	if s1.Measure != sN.Measure {
		t.Errorf("measure %q sharded vs %q unsharded", sN.Measure, s1.Measure)
	}
	if covered(s1) != covered(sN) || s1.Skipped != sN.Skipped || s1.Pruned != sN.Pruned {
		t.Errorf("query %s: scored+bounded/skipped/pruned %d/%d/%d sharded vs %d/%d/%d unsharded",
			queryID, sN.Scored+sN.Bounded, sN.Skipped, sN.Pruned, s1.Scored+s1.Bounded, s1.Skipped, s1.Pruned)
	}
	if len(sN.Generations) != eN.Shards() {
		t.Errorf("search stats carry a %d-element generation vector on %d shards", len(sN.Generations), eN.Shards())
	}
}

func TestShardedSearchEquivalence(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts []Option
	}{
		{"index+cache", []Option{WithIndex(2), WithScoreCache(1 << 14)}},
		{"index", []Option{WithIndex(2)}},
		{"cache", []Option{WithScoreCache(1 << 14)}},
		{"bare", nil},
	} {
		for _, n := range []int{2, 4} {
			e1, eN, c := shardedPair(t, n, cfg.opts...)
			if got := eN.Shards(); got != n {
				t.Fatalf("%s: Shards() = %d, want %d", cfg.name, got, n)
			}
			if e1.Size() != eN.Size() {
				t.Fatalf("%s: size %d sharded vs %d unsharded", cfg.name, eN.Size(), e1.Size())
			}
			for _, wf := range c.Repo.Workflows()[:4] {
				assertSameSearch(t, e1, eN, wf.ID, SearchOptions{K: 12})
				// Twice: the second pass is served from the shard caches
				// (when there are any) and must not change anything.
				assertSameSearch(t, e1, eN, wf.ID, SearchOptions{K: 12})
				assertSameSearch(t, e1, eN, wf.ID, SearchOptions{K: 12, Exact: true})
				assertSameSearch(t, e1, eN, wf.ID, SearchOptions{K: 12, Measure: "MS_ip_te_pll"})
			}
			if t.Failed() {
				t.Fatalf("%s at %d shards diverged", cfg.name, n)
			}
		}
	}
}

func TestShardedEquivalenceAfterApply(t *testing.T) {
	e1, eN, c := shardedPair(t, 3, WithIndex(2), WithScoreCache(1<<14))
	ctx := context.Background()
	victim := c.Repo.Workflows()[7].ID
	replaced := c.Repo.Workflows()[3].ID
	muts := []Mutation{
		AddWorkflow(shardTestWF("zz-new-1", "fetch protein sequence", "align sequences", "render plot")),
		AddWorkflow(shardTestWF("zz-new-2", "fetch protein sequence", "blast search", "filter hits")),
		RemoveWorkflow(victim),
		ReplaceWorkflow(shardTestWF(replaced, "parse xml", "merge records")),
	}
	if _, err := e1.Apply(ctx, muts...); err != nil {
		t.Fatal(err)
	}
	if _, err := eN.Apply(ctx, muts...); err != nil {
		t.Fatal(err)
	}
	if e1.Size() != eN.Size() {
		t.Fatalf("post-apply size %d sharded vs %d unsharded", eN.Size(), e1.Size())
	}
	if eN.Workflow(victim) != nil {
		t.Error("removed workflow still resolvable on sharded engine")
	}
	for _, id := range []string{"zz-new-1", replaced, c.Repo.Workflows()[0].ID} {
		assertSameSearch(t, e1, eN, id, SearchOptions{K: 10})
	}

	p1, s1, err := e1.Duplicates(ctx, 0.45, DuplicateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pN, sN, err := eN.Duplicates(ctx, 0.45, DuplicateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) == 0 {
		t.Fatal("expected duplicate pairs")
	}
	if len(p1) != len(pN) {
		t.Fatalf("duplicates: %d sharded vs %d unsharded", len(pN), len(p1))
	}
	for i := range p1 {
		if p1[i] != pN[i] {
			t.Fatalf("duplicate pair %d: sharded %+v vs unsharded %+v", i, pN[i], p1[i])
		}
	}
	if covered(s1) != covered(sN) || s1.Skipped != sN.Skipped {
		t.Errorf("duplicate stats differ: sharded %d/%d vs unsharded %d/%d",
			covered(sN), sN.Skipped, covered(s1), s1.Skipped)
	}

	// Clustering: same partition of the corpus into groups. Cluster member
	// order may differ (a sharded corpus is globally ordered by ID, not by
	// insertion), so compare membership sets.
	c1, err := e1.Cluster(ctx, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cN, err := eN.Cluster(ctx, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if key1, keyN := clusterKey(c1.Clusters), clusterKey(cN.Clusters); key1 != keyN {
		t.Errorf("clusterings differ:\nunsharded: %s\nsharded:   %s", key1, keyN)
	}
	if len(c1.Generations) != 1 || len(cN.Generations) != 3 {
		t.Errorf("cluster generation vectors have %d and %d elements, want 1 and 3", len(c1.Generations), len(cN.Generations))
	}
}

// clusterKey canonicalizes a clustering for comparison: members sorted within
// clusters, clusters sorted by first member.
func clusterKey(clusters [][]string) string {
	canon := make([]string, len(clusters))
	for i, members := range clusters {
		m := append([]string(nil), members...)
		slices.Sort(m)
		canon[i] = strings.Join(m, ",")
	}
	slices.Sort(canon)
	return strings.Join(canon, " | ")
}

func TestShardedCompareEquivalence(t *testing.T) {
	e1, eN, c := shardedPair(t, 3)
	a, b := c.Repo.Workflows()[0], c.Repo.Workflows()[1]
	s1, err := e1.Compare(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	sN, err := eN.Compare(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if s1[i].Measure != sN[i].Measure || s1[i].Similarity != sN[i].Similarity {
			t.Errorf("Compare[%d]: sharded (%s, %v) vs unsharded (%s, %v)",
				i, sN[i].Measure, sN[i].Similarity, s1[i].Measure, s1[i].Similarity)
		}
	}
	scores, gen, err := eN.CompareIDs(context.Background(), a.ID, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) == 0 || gen != eN.Generation() {
		t.Errorf("CompareIDs gen = %d, want %d", gen, eN.Generation())
	}
}

func TestShardedRepositoryKnowledgeEquivalence(t *testing.T) {
	e1, eN, c := shardedPair(t, 3, WithRepositoryKnowledge(0))
	ids := []string{c.Repo.Workflows()[0].ID, c.Repo.Workflows()[5].ID}
	for _, id := range ids {
		assertSameSearch(t, e1, eN, id, SearchOptions{K: 10, Measure: "MS_ip_te_pll"})
	}
	// A mutation changes module frequencies: both projectors must rebuild
	// over the same post-mutation corpus and keep agreeing.
	muts := []Mutation{
		AddWorkflow(shardTestWF("zz-rk-1", "fetch protein sequence", "align sequences")),
		RemoveWorkflow(c.Repo.Workflows()[9].ID),
	}
	if _, err := e1.Apply(context.Background(), muts...); err != nil {
		t.Fatal(err)
	}
	if _, err := eN.Apply(context.Background(), muts...); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		assertSameSearch(t, e1, eN, id, SearchOptions{K: 10, Measure: "MS_ip_te_pll"})
	}
	if r := eN.ProjectorRebuilds(); r < 2 {
		t.Errorf("sharded projector rebuilds = %d, want >= 2 (boot + post-mutation)", r)
	}
}

func TestShardedApplyAtomicity(t *testing.T) {
	c := testCorpus(t)
	eng, err := New(c.Repo, WithShards(4), WithIndex(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	beforeGens := eng.Generations()
	beforeSize := eng.Size()

	// The batch spans several shards; the last op is invalid (duplicate ID),
	// so no shard may commit anything.
	bad := []Mutation{
		AddWorkflow(shardTestWF("zz-atomic-1", "step one")),
		AddWorkflow(shardTestWF("zz-atomic-2", "step two")),
		AddWorkflow(shardTestWF("zz-atomic-3", "step three")),
		AddWorkflow(c.Repo.Workflows()[0]),
	}
	if _, err := eng.Apply(ctx, bad...); err == nil {
		t.Fatal("Apply with duplicate ID should fail")
	}
	afterGens := eng.Generations()
	for i := range beforeGens {
		if afterGens[i] != beforeGens[i] {
			t.Errorf("shard %d generation moved %d -> %d after failed Apply", i, beforeGens[i], afterGens[i])
		}
	}
	if eng.Size() != beforeSize {
		t.Errorf("size moved %d -> %d after failed Apply", beforeSize, eng.Size())
	}
	for _, id := range []string{"zz-atomic-1", "zz-atomic-2", "zz-atomic-3"} {
		if eng.Workflow(id) != nil {
			t.Errorf("failed Apply leaked %s", id)
		}
	}

	// Under the race detector: concurrent searches against concurrent
	// cross-shard applies (some failing validation) must stay consistent —
	// every observed generation vector is a commit boundary, never half a
	// batch.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := eng.SearchID(ctx, c.Repo.Workflows()[1].ID, SearchOptions{K: 5}); err != nil {
					t.Errorf("concurrent search: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		add := shardTestWF(fmt.Sprintf("zz-race-%d", i), "alpha", "beta")
		if _, err := eng.Apply(ctx, AddWorkflow(add), RemoveWorkflow(add.ID)); err != nil {
			t.Errorf("apply %d: %v", i, err)
		}
		if _, err := eng.Apply(ctx, AddWorkflow(c.Repo.Workflows()[0])); err == nil {
			t.Error("duplicate add slipped through")
		}
	}
	close(stop)
	wg.Wait()
	if eng.Size() != beforeSize {
		t.Errorf("size drifted to %d after balanced add/remove batches, want %d", eng.Size(), beforeSize)
	}
}

func TestShardedStorageRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := testCorpus(t)
	eng, err := New(c.Repo, WithShards(3), WithIndex(2), WithScoreCache(1<<14),
		WithStorage(dir, StorageNoSync()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.Apply(ctx, AddWorkflow(shardTestWF("zz-durable-1", "fetch data", "plot data"))); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(ctx, RemoveWorkflow(c.Repo.Workflows()[2].ID)); err != nil {
		t.Fatal(err)
	}
	wantGens := eng.Generations()
	wantSize := eng.Size()
	queryID := c.Repo.Workflows()[0].ID
	wantRes, _, err := eng.SearchID(ctx, queryID, SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(ctx, AddWorkflow(shardTestWF("zz-after-close", "x"))); err == nil {
		t.Error("Apply after Close should fail")
	}

	// Same shard count: full state comes back, warm cache re-seeded.
	repo2, err := NewRepository()
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := New(repo2, WithShards(3), WithIndex(2), WithScoreCache(1<<14),
		WithStorage(dir, StorageNoSync()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	gotGens := eng2.Generations()
	if len(gotGens) != len(wantGens) {
		t.Fatalf("generation vector length %d, want %d", len(gotGens), len(wantGens))
	}
	for i := range wantGens {
		if gotGens[i] != wantGens[i] {
			t.Errorf("shard %d generation %d after restart, want %d", i, gotGens[i], wantGens[i])
		}
	}
	if eng2.Size() != wantSize {
		t.Fatalf("size %d after restart, want %d", eng2.Size(), wantSize)
	}
	gotRes, stats, err := eng2.SearchID(ctx, queryID, SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantRes {
		if wantRes[i] != gotRes[i] {
			t.Fatalf("restart changed result %d: %+v vs %+v", i, gotRes[i], wantRes[i])
		}
	}
	if st, ok := eng2.StorageStats(); !ok || st.WarmCacheEntries == 0 {
		t.Errorf("expected warm cache entries after restart, got %+v ok=%v", st, ok)
	} else if stats.CacheHits == 0 {
		t.Errorf("restart search had no cache hits despite %d warm entries", st.WarmCacheEntries)
	}

	// Different shard count: refused with a clear error.
	repo3, _ := NewRepository()
	if _, err := New(repo3, WithShards(2), WithStorage(dir)); err == nil ||
		!strings.Contains(err.Error(), "3 shards") {
		t.Errorf("reopen with different shard count: err = %v, want mention of 3 shards", err)
	}
	// Unsharded open of a sharded directory: refused.
	repo4, _ := NewRepository()
	if _, err := New(repo4, WithStorage(dir)); err == nil ||
		!strings.Contains(err.Error(), "sharded") {
		t.Errorf("flat open of sharded dir: err = %v, want sharded-layout refusal", err)
	}
	// Preload into a directory holding sharded state: refused.
	c2 := testCorpus(t)
	if _, err := New(c2.Repo, WithShards(3), WithStorage(dir)); err == nil ||
		!strings.Contains(err.Error(), "refusing") {
		t.Errorf("preload over sharded state: err = %v, want refusal", err)
	}
	if has, err := HasStoredState(dir); err != nil || !has {
		t.Errorf("HasStoredState(sharded dir) = %v, %v; want true", has, err)
	}
}

func TestShardedStats(t *testing.T) {
	c := testCorpus(t)
	eng, err := New(c.Repo, WithShards(4), WithIndex(2), WithScoreCache(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	infos := eng.ShardStats()
	if len(infos) != 4 {
		t.Fatalf("ShardStats returned %d shards, want 4", len(infos))
	}
	totalWF, indexed := 0, 0
	for i, info := range infos {
		if info.ID != i {
			t.Errorf("shard %d reports ID %d", i, info.ID)
		}
		totalWF += info.Workflows
		if info.Index != nil {
			indexed++
			if info.Index.Live != info.Workflows {
				t.Errorf("shard %d index live %d != workflows %d", i, info.Index.Live, info.Workflows)
			}
		}
		if info.Cache == nil {
			t.Errorf("shard %d missing cache block", i)
		}
		if info.Storage != nil {
			t.Errorf("RAM-only shard %d has storage block", i)
		}
	}
	if totalWF != eng.Size() {
		t.Errorf("shard workflow counts sum to %d, want %d", totalWF, eng.Size())
	}
	if indexed != 4 {
		t.Errorf("%d shards indexed, want 4", indexed)
	}
	if _, ok := eng.IndexStats(); !ok {
		t.Error("aggregate IndexStats not ok")
	}
	if _, _, err := eng.SearchID(context.Background(), c.Repo.Workflows()[0].ID, SearchOptions{K: 5}); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Misses == 0 {
		t.Error("aggregate CacheStats shows no traffic after a search")
	}
	if eng.ShardStats()[0].Generation != 0 {
		t.Error("fresh shard generation != 0")
	}
	if n := len(eng.Generations()); n != 4 {
		t.Errorf("generation vector length %d, want 4", n)
	}
	// Without WithShards the engine is the one-shard case of the same
	// surface: one shard block holding everything, a one-element vector.
	e1, err := New(testCorpus(t).Repo)
	if err != nil {
		t.Fatal(err)
	}
	if infos := e1.ShardStats(); len(infos) != 1 || infos[0].Workflows != e1.Size() {
		t.Errorf("one-shard engine reports shard stats %+v, want one block of %d workflows", infos, e1.Size())
	}
	if v := e1.Generations(); len(v) != 1 {
		t.Errorf("one-shard generation vector length %d, want 1", len(v))
	}
}

func TestWithShardsValidation(t *testing.T) {
	c := testCorpus(t)
	if _, err := New(c.Repo, WithShards(0)); err == nil {
		t.Error("WithShards(0) accepted")
	}
	// WithShards(1) is the default spelled out.
	eng, err := New(c.Repo, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Shards() != 1 || len(eng.ShardStats()) != 1 {
		t.Errorf("WithShards(1) built %d shards (%d stats blocks)", eng.Shards(), len(eng.ShardStats()))
	}
}
