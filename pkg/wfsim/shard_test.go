package wfsim

import (
	"context"
	"fmt"
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

func TestShardedApplyAtomicity(t *testing.T) {
	c := testCorpus(t)
	eng, err := New(c.Repo, WithShards(4), WithIndex(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	beforeGens := eng.Read().Frontier().Generations
	beforeSize := eng.Read().Frontier().Workflows

	// The batch spans several shards; the last op is invalid (duplicate ID),
	// so no shard may commit anything.
	bad := []Mutation{
		AddWorkflow(shardTestWF("zz-atomic-1", "step one")),
		AddWorkflow(shardTestWF("zz-atomic-2", "step two")),
		AddWorkflow(shardTestWF("zz-atomic-3", "step three")),
		AddWorkflow(c.Repo.Snapshot().Workflows()[0]),
	}
	if _, err := eng.Apply(ctx, bad...); err == nil {
		t.Fatal("Apply with duplicate ID should fail")
	}
	afterGens := eng.Read().Frontier().Generations
	for i := range beforeGens {
		if afterGens[i] != beforeGens[i] {
			t.Errorf("shard %d generation moved %d -> %d after failed Apply", i, beforeGens[i], afterGens[i])
		}
	}
	if eng.Read().Frontier().Workflows != beforeSize {
		t.Errorf("size moved %d -> %d after failed Apply", beforeSize, eng.Read().Frontier().Workflows)
	}
	for _, id := range []string{"zz-atomic-1", "zz-atomic-2", "zz-atomic-3"} {
		if eng.Read().Get(id) != nil {
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
				if _, _, err := eng.SearchID(ctx, c.Repo.Snapshot().Workflows()[1].ID, SearchOptions{K: 5}); err != nil {
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
		if _, err := eng.Apply(ctx, AddWorkflow(c.Repo.Snapshot().Workflows()[0])); err == nil {
			t.Error("duplicate add slipped through")
		}
	}
	close(stop)
	wg.Wait()
	if eng.Read().Frontier().Workflows != beforeSize {
		t.Errorf("size drifted to %d after balanced add/remove batches, want %d", eng.Read().Frontier().Workflows, beforeSize)
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
	if _, err := eng.Apply(ctx, RemoveWorkflow(c.Repo.Snapshot().Workflows()[2].ID)); err != nil {
		t.Fatal(err)
	}
	wantGens := eng.Read().Frontier().Generations
	wantSize := eng.Read().Frontier().Workflows
	queryID := c.Repo.Snapshot().Workflows()[0].ID
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
	gotGens := eng2.Read().Frontier().Generations
	if len(gotGens) != len(wantGens) {
		t.Fatalf("generation vector length %d, want %d", len(gotGens), len(wantGens))
	}
	for i := range wantGens {
		if gotGens[i] != wantGens[i] {
			t.Errorf("shard %d generation %d after restart, want %d", i, gotGens[i], wantGens[i])
		}
	}
	if eng2.Read().Frontier().Workflows != wantSize {
		t.Fatalf("size %d after restart, want %d", eng2.Read().Frontier().Workflows, wantSize)
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
	infos := eng.Read().ShardStats()
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
	if totalWF != eng.Read().Frontier().Workflows {
		t.Errorf("shard workflow counts sum to %d, want %d", totalWF, eng.Read().Frontier().Workflows)
	}
	if indexed != 4 {
		t.Errorf("%d shards indexed, want 4", indexed)
	}
	if _, ok := eng.IndexStats(); !ok {
		t.Error("aggregate IndexStats not ok")
	}
	if _, _, err := eng.SearchID(context.Background(), c.Repo.Snapshot().Workflows()[0].ID, SearchOptions{K: 5}); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Misses == 0 {
		t.Error("aggregate CacheStats shows no traffic after a search")
	}
	if eng.Read().ShardStats()[0].Generation != 0 {
		t.Error("fresh shard generation != 0")
	}
	if n := len(eng.Read().Frontier().Generations); n != 4 {
		t.Errorf("generation vector length %d, want 4", n)
	}
	// Without WithShards the engine is the one-shard case of the same
	// surface: one shard block holding everything, a one-element vector.
	e1, err := New(testCorpus(t).Repo)
	if err != nil {
		t.Fatal(err)
	}
	if infos := e1.Read().ShardStats(); len(infos) != 1 || infos[0].Workflows != e1.Read().Frontier().Workflows {
		t.Errorf("one-shard engine reports shard stats %+v, want one block of %d workflows", infos, e1.Read().Frontier().Workflows)
	}
	if v := e1.Read().Frontier().Generations; len(v) != 1 {
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
	if eng.Shards() != 1 || len(eng.Read().ShardStats()) != 1 {
		t.Errorf("WithShards(1) built %d shards (%d stats blocks)", eng.Shards(), len(eng.Read().ShardStats()))
	}
}
