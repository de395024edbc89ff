package shard

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/storage"
	"repro/internal/symtab"
	"repro/internal/workflow"
)

// A sharded data directory is pinned to its shard count: reopening with
// fewer or more shards must be refused in both directions, with the marker
// left intact so the original count still opens.
func TestCheckLayoutRefusesMismatchedShardCount(t *testing.T) {
	dir := t.TempDir()
	if err := CheckLayout(dir, 4); err != nil {
		t.Fatalf("fresh directory: %v", err)
	}
	if err := CheckLayout(dir, 4); err != nil {
		t.Fatalf("reopen with recorded count: %v", err)
	}
	for _, n := range []int{2, 8} {
		err := CheckLayout(dir, n)
		if err == nil {
			t.Fatalf("reopen with %d shards accepted; directory was written with 4", n)
		}
		if !strings.Contains(err.Error(), "4 shards") {
			t.Errorf("reopen with %d shards: error %q does not name the recorded count", n, err)
		}
	}
	// The refusals must not have rewritten the marker.
	recorded, ok, err := ReadMarker(dir)
	if err != nil || !ok || recorded != 4 {
		t.Fatalf("marker after refused reopens: n=%d ok=%v err=%v, want 4/true/nil", recorded, ok, err)
	}
	if err := CheckLayout(dir, 4); err != nil {
		t.Fatalf("original count no longer opens: %v", err)
	}
}

// A directory holding a flat (unsharded) corpus must not be adopted by a
// sharded engine: the corpus would be invisible under the shard
// subdirectories and a fork of the state would accrete next to it.
func TestCheckLayoutRefusesFlatDirectory(t *testing.T) {
	dir := t.TempDir()
	store, _, _, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	wf := &workflow.Workflow{ID: "flat-1", Modules: []*workflow.Module{{Label: "alpha"}}}
	if err := store.Commit(1, []corpus.Op{{Kind: corpus.OpAdd, ID: wf.ID, Workflow: wf}}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	checkErr := CheckLayout(dir, 2)
	if checkErr == nil {
		t.Fatal("sharded open of a flat directory accepted")
	}
	if !strings.Contains(checkErr.Error(), "unsharded") {
		t.Errorf("error %q does not say the directory is unsharded", checkErr)
	}
	// No marker may have been written by the refusal: the directory must
	// still open as the flat corpus it is.
	if _, ok, err := ReadMarker(dir); err != nil || ok {
		t.Fatalf("refused sharded open left a marker behind (ok=%v err=%v)", ok, err)
	}
}

// A validation failure in one shard's sub-batch must leave every shard's
// durable state untouched too: after close and reopen, no generation has
// advanced and none of the batch's valid ops are visible.
func TestFailedApplyCommitsNothingDurably(t *testing.T) {
	c := testCorpus(t, 40)
	dir := t.TempDir()
	coord := buildLocal(t, c, 3, dir)
	v := coord.View()
	wantGens := v.Generations()
	wantSize := v.Size()

	// Ops spread across shards; the duplicate add fails validation on the
	// shard owning it while the fresh adds are valid on theirs.
	existing := c.Repo.Snapshot().Workflows()[0]
	ops := []corpus.Op{
		{Kind: corpus.OpAdd, ID: "fresh-a", Workflow: &workflow.Workflow{ID: "fresh-a", Modules: []*workflow.Module{{Label: "alpha"}}}},
		{Kind: corpus.OpAdd, ID: "fresh-b", Workflow: &workflow.Workflow{ID: "fresh-b", Modules: []*workflow.Module{{Label: "beta"}}}},
		{Kind: corpus.OpAdd, ID: existing.ID, Workflow: existing},
	}
	if _, err := coord.Apply(ops); err == nil {
		t.Fatal("Apply with an invalid op should fail")
	} else if !strings.Contains(err.Error(), "shard ") {
		t.Errorf("validation error %q does not name the failing shard", err)
	}
	if err := coord.Close(nil); err != nil {
		t.Fatal(err)
	}

	shards := make([]*Local, 3)
	tab := symtab.New()
	for i := range shards {
		s, err := NewLocal(i, LocalConfig{MinShared: 2, Dir: ShardDir(dir, i), Symtab: tab})
		if err != nil {
			t.Fatalf("reopen shard %d: %v", i, err)
		}
		shards[i] = s
	}
	coord2, err := NewCoordinator(shards)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close(nil)
	v2 := coord2.View()
	gotGens := v2.Generations()
	for i := range wantGens {
		if gotGens[i] != wantGens[i] {
			t.Errorf("shard %d recovered at generation %d, want %d: failed Apply leaked a commit", i, gotGens[i], wantGens[i])
		}
	}
	if v2.Size() != wantSize {
		t.Errorf("recovered %d workflows, want %d", v2.Size(), wantSize)
	}
	if v2.Get("fresh-a") != nil || v2.Get("fresh-b") != nil {
		t.Error("valid ops of a failed batch survived a restart")
	}
}
