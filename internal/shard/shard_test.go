package shard

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/measures"
	"repro/internal/module"
	"repro/internal/search"
	"repro/internal/storage"
	"repro/internal/symtab"
	"repro/internal/workflow"
)

func testCorpus(t *testing.T, n int) *gen.Corpus {
	t.Helper()
	p := gen.Galaxy()
	p.Workflows = n
	p.Clusters = 8
	c, err := gen.Generate(p, 23)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func msMeasure() measures.Measure {
	return measures.NewStructural(measures.Config{
		Topology:  measures.ModuleSets,
		Scheme:    module.PLL(),
		Normalize: true,
	})
}

func TestRingOwnerDeterministicAndCovering(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		ring, err := NewRing(n)
		if err != nil {
			t.Fatalf("NewRing(%d): %v", n, err)
		}
		counts := make([]int, n)
		for i := 0; i < 5000; i++ {
			id := fmt.Sprintf("wf-%04d", i)
			owner := ring.Owner(id)
			if owner < 0 || owner >= n {
				t.Fatalf("ring(%d).Owner(%q) = %d out of range", n, id, owner)
			}
			if again := ring.Owner(id); again != owner {
				t.Fatalf("ring(%d).Owner(%q) not deterministic: %d then %d", n, id, owner, again)
			}
			counts[owner]++
		}
		for s, c := range counts {
			if c == 0 {
				t.Errorf("ring(%d): shard %d owns no IDs out of 5000", n, s)
			}
		}
		if n == 1 && counts[0] != 5000 {
			t.Errorf("ring(1) must own everything, got %d", counts[0])
		}
	}
	if _, err := NewRing(0); err == nil {
		t.Error("NewRing(0) should fail")
	}
}

func TestRingStableAcrossInstances(t *testing.T) {
	a, _ := NewRing(4)
	b, _ := NewRing(4)
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("workflow/%d", i)
		if a.Owner(id) != b.Owner(id) {
			t.Fatalf("two rings with the same shard count disagree on %q", id)
		}
	}
}

// globalOrder is the ranking one scan over the whole corpus produces:
// descending similarity, ties broken by ascending ID. It is spelled out here
// rather than borrowed from search.SortResults, which MergeTopK calls.
func globalOrder(a, b search.Result) int {
	if a.Similarity != b.Similarity {
		return cmp.Compare(b.Similarity, a.Similarity)
	}
	return strings.Compare(a.ID, b.ID)
}

func TestMergeTopKMatchesGlobalSort(t *testing.T) {
	check := func(name string, lists [][]search.Result, k int) {
		t.Helper()
		all := slices.SortedFunc(slices.Values(slices.Concat(lists...)), globalOrder)
		want := all[:min(k, len(all))]
		got := MergeTopK(lists, k)
		if len(got) != len(want) {
			t.Fatalf("%s: merge returned %d results, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: merged[%d] = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		nShards := 1 + r.Intn(6)
		total := 0
		lists := make([][]search.Result, nShards)
		for s := 0; s < nShards; s++ {
			n := r.Intn(20)
			for i := 0; i < n; i++ {
				// Coarse similarity buckets force plenty of ties so the
				// ID tie-break is actually exercised.
				lists[s] = append(lists[s], search.Result{
					ID:         fmt.Sprintf("wf-%02d-%02d", s, i),
					Similarity: float64(r.Intn(5)) / 4,
				})
			}
			slices.SortFunc(lists[s], globalOrder)
			total += n
		}
		name := fmt.Sprintf("trial %d", trial)
		check(name, lists, 1+r.Intn(15))
		check(name+", k = total", lists, total)
		check(name+", k > total", lists, total+1+r.Intn(5))
	}
	check("no lists", nil, 5)
	check("empty lists", [][]search.Result{nil, {}, nil}, 5)
	check("one empty list", [][]search.Result{{}, {{ID: "a", Similarity: 0.5}}}, 5)
}

func TestLayoutMarkerRoundTrip(t *testing.T) {
	root := t.TempDir()
	if _, ok, err := ReadMarker(root); err != nil || ok {
		t.Fatalf("ReadMarker on empty dir = ok=%v err=%v, want absent", ok, err)
	}
	if err := CheckLayout(root, 4); err != nil {
		t.Fatalf("CheckLayout on fresh dir: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(root, "shards.json.tmp*")); len(left) != 0 {
		t.Errorf("temp files left beside the marker: %v", left)
	}
	n, ok, err := ReadMarker(root)
	if err != nil || !ok || n != 4 {
		t.Fatalf("ReadMarker after CheckLayout = %d, %v, %v; want 4, true, nil", n, ok, err)
	}
	// Same count reopens fine; different count is refused with a clear error.
	if err := CheckLayout(root, 4); err != nil {
		t.Fatalf("CheckLayout same count: %v", err)
	}
	err = CheckLayout(root, 2)
	if err == nil {
		t.Fatal("CheckLayout with mismatched shard count should fail")
	}
	if !strings.Contains(err.Error(), "4 shards") || !strings.Contains(err.Error(), "-shards 4") {
		t.Errorf("mismatch error should name the recorded count and remedy, got: %v", err)
	}
	has, err := DirHasState(root)
	if err != nil || !has {
		t.Fatalf("DirHasState with marker only = %v, %v; want true", has, err)
	}
}

func TestCheckLayoutRefusesUnshardedDir(t *testing.T) {
	root := t.TempDir()
	store, _, _, err := storage.Open(root, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wf := &workflow.Workflow{ID: "w1", Modules: []*workflow.Module{{Label: "step one"}}}
	if err := store.Commit(1, []corpus.Op{{Kind: corpus.OpAdd, ID: "w1", Workflow: wf}}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	err = CheckLayout(root, 2)
	if err == nil {
		t.Fatal("CheckLayout over a flat unsharded corpus should fail")
	}
	if !strings.Contains(err.Error(), "unsharded") {
		t.Errorf("error should say the directory is unsharded, got: %v", err)
	}
}

// buildLocal seeds nShards in-memory shards from the generated corpus,
// partitioned by the ring, and returns the coordinator.
func buildLocal(t *testing.T, c *gen.Corpus, nShards int, dir string) *Coordinator {
	t.Helper()
	ring, err := NewRing(nShards)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]*workflow.Workflow, nShards)
	for _, wf := range c.Repo.Snapshot().Workflows() {
		o := ring.Owner(wf.ID)
		parts[o] = append(parts[o], wf)
	}
	shards := make([]*Local, nShards)
	tab := symtab.New() // one table per coordinator, shared by its shards
	for i := range shards {
		cfg := LocalConfig{MinShared: 2, CacheSize: 1 << 16, Seed: parts[i], Symtab: tab}
		if dir != "" {
			cfg.Dir = ShardDir(dir, i)
		}
		s, err := NewLocal(i, cfg)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		shards[i] = s
	}
	coord, err := NewCoordinator(shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close(nil) })
	return coord
}

func TestCoordinatorApplyAtomicity(t *testing.T) {
	c := testCorpus(t, 60)
	coord := buildLocal(t, c, 3, "")
	before := coord.View()
	beforeGens := before.Generations()
	beforeSize := before.Size()

	// A batch touching several shards where one op is invalid (duplicate add)
	// must leave every shard untouched.
	existing := c.Repo.Snapshot().Workflows()[0]
	ops := []corpus.Op{
		{Kind: corpus.OpAdd, ID: "new-a", Workflow: &workflow.Workflow{ID: "new-a", Modules: []*workflow.Module{{Label: "alpha"}}}},
		{Kind: corpus.OpAdd, ID: "new-b", Workflow: &workflow.Workflow{ID: "new-b", Modules: []*workflow.Module{{Label: "beta"}}}},
		{Kind: corpus.OpAdd, ID: existing.ID, Workflow: existing},
	}
	if _, err := coord.Apply(ops); err == nil {
		t.Fatal("Apply with an invalid op should fail")
	}
	after := coord.View()
	afterGens := after.Generations()
	for i := range beforeGens {
		if afterGens[i] != beforeGens[i] {
			t.Errorf("shard %d generation moved %d -> %d after failed Apply", i, beforeGens[i], afterGens[i])
		}
	}
	if after.Size() != beforeSize {
		t.Errorf("size moved %d -> %d after failed Apply", beforeSize, after.Size())
	}
	if after.Get("new-a") != nil || after.Get("new-b") != nil {
		t.Error("failed Apply leaked workflows into shards")
	}

	// The valid prefix alone commits, bumping exactly the touched shards.
	gens, err := coord.Apply(ops[:2])
	if err != nil {
		t.Fatalf("valid Apply: %v", err)
	}
	v := coord.View()
	if v.Get("new-a") == nil || v.Get("new-b") == nil {
		t.Fatal("committed workflows not visible")
	}
	bumped := 0
	for i := range gens {
		switch gens[i] {
		case beforeGens[i]:
		case beforeGens[i] + 1:
			bumped++
		default:
			t.Errorf("shard %d generation jumped %d -> %d", i, beforeGens[i], gens[i])
		}
	}
	if bumped == 0 {
		t.Error("no shard generation advanced after successful Apply")
	}
	if got := v.AggregateGeneration(); got != sum(gens) {
		t.Errorf("AggregateGeneration = %d, want %d", got, sum(gens))
	}
}

// TestApplyReturnsCommittedVector: the vector Apply returns is the frontier
// a reader pins right after it — for commits touching one shard, some
// shards and every shard, with untouched shards carried over unchanged.
func TestApplyReturnsCommittedVector(t *testing.T) {
	const n = 4
	coord := buildLocal(t, testCorpus(t, 40), n, "")
	// Fresh IDs grouped by owning shard, so batches can aim at chosen shards.
	byOwner := make([][]string, n)
	for i := 0; len(byOwner[0]) < 3 || len(byOwner[1]) < 3 || len(byOwner[2]) < 3 || len(byOwner[3]) < 3; i++ {
		id := fmt.Sprintf("vec-%03d", i)
		o := coord.Ring().Owner(id)
		byOwner[o] = append(byOwner[o], id)
	}
	add := func(id string) corpus.Op {
		return corpus.Op{Kind: corpus.OpAdd, ID: id, Workflow: &workflow.Workflow{ID: id, Modules: []*workflow.Module{{Label: "alpha"}}}}
	}
	for _, c := range []struct {
		name   string
		owners []int
	}{
		{"one shard", []int{2}},
		{"some shards", []int{0, 3}},
		{"all shards", []int{0, 1, 2, 3}},
	} {
		before := coord.View().Generations()
		var ops []corpus.Op
		want := append([]uint64(nil), before...)
		for _, o := range c.owners {
			ops = append(ops, add(byOwner[o][0]))
			byOwner[o] = byOwner[o][1:]
			want[o]++
		}
		got, err := coord.Apply(ops)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if pinned := coord.View().Generations(); !reflect.DeepEqual(got, pinned) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Apply returned %v, view pins %v, want %v", c.name, got, pinned, want)
		}
	}
}

func sum(v []uint64) uint64 {
	var s uint64
	for _, x := range v {
		s += x
	}
	return s
}

func TestSearchEquivalenceAcrossShardCounts(t *testing.T) {
	c := testCorpus(t, 80)
	prep1 := NewScanPrep(msMeasure(), 0)
	coord1 := buildLocal(t, c, 1, "")
	v1 := coord1.View()

	queries := c.Repo.Snapshot().Workflows()[:5]
	for _, nShards := range []int{2, 3, 5} {
		coordN := buildLocal(t, c, nShards, "")
		vN := coordN.View()
		prepN := NewScanPrep(msMeasure(), 0)
		for _, q := range queries {
			r1, _, err := coord1.Search(context.Background(), v1, prep1, Query{Query: q, K: 15})
			if err != nil {
				t.Fatal(err)
			}
			rN, _, err := coordN.Search(context.Background(), vN, prepN, Query{Query: q, K: 15})
			if err != nil {
				t.Fatal(err)
			}
			if len(r1) != len(rN) {
				t.Fatalf("%d shards, query %s: %d results vs %d at 1 shard", nShards, q.ID, len(rN), len(r1))
			}
			for i := range r1 {
				if r1[i].ID != rN[i].ID || r1[i].Similarity != rN[i].Similarity {
					t.Fatalf("%d shards, query %s, rank %d: got (%s, %g), want (%s, %g)",
						nShards, q.ID, i, rN[i].ID, rN[i].Similarity, r1[i].ID, r1[i].Similarity)
				}
			}
		}
	}
}

// TestOnlyBoundedMeasuresSkipTheIndex: whether a scan has a score bound is
// settled once, when its ScanPrep is built, by what the specialised measure
// implements. Module Sets has one: its searches never take the index's
// candidates (nothing pruned, pairs bounded instead). Path Sets and Graph Edit
// have none: their prep holds no bounded form — so no pair of theirs costs a
// projection and a bound call that could only answer +Inf — and their
// searches go through the index as before.
func TestOnlyBoundedMeasuresSkipTheIndex(t *testing.T) {
	c := testCorpus(t, 60)
	coord := buildLocal(t, c, 2, "") // every shard has an index
	v := coord.View()
	for _, topo := range []measures.Topology{measures.ModuleSets, measures.PathSets, measures.GraphEdit} {
		m := measures.NewStructural(measures.Config{Topology: topo, Scheme: module.PLL(), Normalize: true, GEDBeamWidth: 4})
		prep := NewScanPrep(m, 0)
		hasBound := topo == measures.ModuleSets
		if (prep.bounded != nil) != hasBound {
			t.Errorf("%s: scan prep has a bounded form: %v, want %v", m.Name(), prep.bounded != nil, hasBound)
		}
		for _, q := range c.Repo.Snapshot().Workflows()[:4] {
			_, st, err := coord.Search(context.Background(), v, prep, Query{Query: q, K: 5})
			if err != nil {
				t.Fatal(err)
			}
			if st.Scored+st.Bounded+st.Pruned+st.Skipped != v.Size()-1 {
				t.Errorf("%s, query %s: %+v does not cover %d pairs", m.Name(), q.ID, st, v.Size()-1)
			}
			if hasBound && (st.Pruned != 0 || st.Bounded == 0) || !hasBound && (st.Pruned == 0 || st.Bounded != 0) {
				t.Errorf("%s, query %s: pruned %d, bounded %d; a measure with a bound is never pruned, one without never bounded", m.Name(), q.ID, st.Pruned, st.Bounded)
			}
		}
	}
}

func TestDuplicatesEquivalenceAndCrossShardPairs(t *testing.T) {
	c := testCorpus(t, 60)
	threshold := 0.5

	coord1 := buildLocal(t, c, 1, "")
	p1, _, err := coord1.Duplicates(context.Background(), coord1.View(), NewScanPrep(msMeasure(), 0), threshold, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) == 0 {
		t.Fatal("expected duplicate pairs at threshold 0.5 in a clustered corpus")
	}

	coord4 := buildLocal(t, c, 4, "")
	p4, _, err := coord4.Duplicates(context.Background(), coord4.View(), NewScanPrep(msMeasure(), 0), threshold, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != len(p4) {
		t.Fatalf("pair count differs: 1 shard %d vs 4 shards %d", len(p1), len(p4))
	}
	ring := coord4.Ring()
	cross := 0
	for i := range p1 {
		if p1[i] != p4[i] {
			t.Fatalf("pair %d differs: 1 shard %+v vs 4 shards %+v", i, p1[i], p4[i])
		}
		if ring.Owner(p4[i].A) != ring.Owner(p4[i].B) {
			cross++
		}
	}
	if cross == 0 {
		t.Error("no cross-shard pair in the duplicate set; block decomposition untested")
	}
	t.Logf("%d pairs, %d cross-shard", len(p4), cross)
}

func TestLocalShardDurableRoundTrip(t *testing.T) {
	c := testCorpus(t, 30)
	dir := t.TempDir()
	coord := buildLocal(t, c, 2, dir)
	v := coord.View()
	wantGens := v.Generations()
	wantIDs := make([]string, 0, v.Size())
	for _, wf := range v.Union() {
		wantIDs = append(wantIDs, wf.ID)
	}
	if err := coord.Close(nil); err != nil {
		t.Fatal(err)
	}

	// Reopen without seeds: state must come back per shard, assigning
	// symbols from one shared table exactly as the original deployment did.
	shards := make([]*Local, 2)
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
			t.Errorf("shard %d generation %d after restart, want %d", i, gotGens[i], wantGens[i])
		}
	}
	gotIDs := make([]string, 0, v2.Size())
	for _, wf := range v2.Union() {
		gotIDs = append(gotIDs, wf.ID)
	}
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("restart lost workflows: %d vs %d", len(gotIDs), len(wantIDs))
	}
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("restart changed corpus: ID[%d] = %s, want %s", i, gotIDs[i], wantIDs[i])
		}
	}

	// Seeding over recovered state is refused.
	if _, err := NewLocal(0, LocalConfig{Dir: ShardDir(dir, 0), Seed: c.Repo.Snapshot().Workflows()[:1]}); err == nil {
		t.Error("seeding a shard that recovered state should fail")
	}
	_ = filepath.Join // keep import if unused in future edits
}

// TestSearchLeavesCapturedQueryOutByID: the index is the one source of
// candidates that may hold another object under the query's ID, so a search
// over an index capture still leaves the query out by ID, not by identity.
func TestSearchLeavesCapturedQueryOutByID(t *testing.T) {
	c := testCorpus(t, 40)
	s, err := NewLocal(0, LocalConfig{MinShared: 2, Seed: c.Repo.Snapshot().Workflows()})
	if err != nil {
		t.Fatal(err)
	}
	pin := s.Pin()
	// An index over copies of the pinned workflows, current for the pin.
	clones := make(search.List, pin.Size())
	for i, wf := range pin.Workflows() {
		clones[i] = wf.Clone()
	}
	pin.idx = index.Build(clones)
	pin.idx.SetGeneration(pin.Generation())

	query := pin.Workflows()[0]
	res, st, err := pin.Search(context.Background(), NewScanPrep(measures.BagOfWords{}, 0), Query{Query: query, K: pin.Size()})
	if err != nil {
		t.Fatal(err)
	}
	if st.Pruned == 0 && len(res) == 0 {
		t.Fatal("the search scanned nothing")
	}
	for _, r := range res {
		if r.ID == query.ID {
			t.Fatalf("the index's copy of query %s is a result (similarity %v)", query.ID, r.Similarity)
		}
	}
	if got := st.Scored + st.Bounded + st.Pruned + st.Skipped; got != pin.Size()-1 {
		t.Errorf("scored %d + bounded %d + pruned %d + skipped %d = %d, want %d", st.Scored, st.Bounded, st.Pruned, st.Skipped, got, pin.Size()-1)
	}
}

// TestPinSearchResolvesOutsideQueries: a query the shards' table did not
// resolve — unresolved, or another table's — is scored on a copy that table
// resolves, through the scan's memo, so it ranks as the shards' own object
// under its ID does; the caller's object keeps the resolution it came with.
func TestPinSearchResolvesOutsideQueries(t *testing.T) {
	c := testCorpus(t, 40)
	coord := buildLocal(t, c, 2, "")
	v := coord.View()
	ctx := context.Background()
	foreignTab := symtab.New()
	for _, stored := range v.Union()[:5] {
		want, _, err := coord.Search(ctx, v, NewScanPrep(msMeasure(), 0), Query{Query: stored, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		unresolved, foreign := stored.Clone(), stored.Clone()
		foreign.Resolve(foreignTab)
		for name, q := range map[string]*workflow.Workflow{"unresolved": unresolved, "foreign": foreign} {
			memo := module.NewSimMemo()
			got, _, err := coord.Search(ctx, v, NewScanPrepWith(msMeasure(), 0, memo), Query{Query: q, K: 10})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s query %s: %v, want %v", name, stored.ID, got, want)
			}
			if memo.Len() == 0 {
				t.Errorf("%s query %s: no pair went through the scan's memo", name, stored.ID)
			}
		}
		if unresolved.Resolved() || !foreign.ResolvedBy(foreignTab) {
			t.Fatalf("query %s: the search changed the caller's resolution", stored.ID)
		}
	}
}
