package wfsim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// sameResults reports the first difference between two result lists, bit for
// bit, or "" when they are identical.
func sameResults(got, want []Result) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("rank %d: (%s, %v), want (%s, %v)", i, got[i].ID, got[i].Similarity, want[i].ID, want[i].Similarity)
		}
	}
	return ""
}

// TestTwoEnginesKeepTheirLabelMemosApart: two engines in one process hold the
// same label strings under different symbol IDs (the second corpus is the
// first one ingested in reverse, after a few workflows of its own). Each
// engine's similarity memo — labels, scripts and descriptions alike — is
// keyed by its own table's IDs, so a memo shared between them — a
// package-level one, say — would serve one engine the other's similarities. Four goroutines search both engines alternately,
// inline and by ID; every result must equal the brute-force reference's over
// the same corpus (bruteForce), which shares no symbol table or memo with
// either engine. Run under
// -race -count=10 in CI.
func TestTwoEnginesKeepTheirLabelMemosApart(t *testing.T) {
	ctx := context.Background()
	c := internTestCorpus(t)
	wfs := c.Repo.Snapshot().Workflows()
	seedOf := func(reverse bool) []*Workflow {
		var seed []*Workflow
		if reverse {
			// Shift every symbol first, then intern the shared labels in
			// the opposite order.
			for i := 0; i < 3; i++ {
				seed = append(seed, mutWorkflow(fmt.Sprintf("extra-%d", i), fmt.Sprintf("only_in_the_second_corpus_%d", i)))
			}
			for i := len(wfs) - 1; i >= 0; i-- {
				seed = append(seed, wfs[i].Clone())
			}
		} else {
			for _, wf := range wfs {
				seed = append(seed, wf.Clone())
			}
		}
		return seed
	}
	build := func(reverse bool) *Engine {
		repo, err := NewRepository(seedOf(reverse)...)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(repo, testShardOpts(t)...)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	engines := map[bool]*Engine{false: build(false), true: build(true)}
	label := wfs[0].Modules[0].Label
	ida, _ := engineSymtab(engines[false]).Lookup(label)
	idb, _ := engineSymtab(engines[true]).Lookup(label)
	if engineSymtab(engines[false]) == engineSymtab(engines[true]) || ida == idb {
		t.Fatalf("label %q is symbol %d in both engines; the test needs two ID spaces", label, ida)
	}

	type probe struct {
		reverse bool
		inline  *Workflow // nil: by ID
		id      string
		measure string
	}
	var probes []probe
	for _, reverse := range []bool{false, true} {
		for _, m := range []string{"MS_ip_te_pll", "MS_np_ta_pw0", "MS_np_ta_pw3"} {
			for i := 0; i < len(wfs); i += 5 {
				probes = append(probes, probe{reverse: reverse, id: wfs[i].ID, measure: m})
				q := wfs[(i+1)%len(wfs)].Clone()
				q.ID = "inline-" + q.ID
				probes = append(probes, probe{reverse: reverse, inline: q, measure: m})
			}
		}
	}
	run := func(eng *Engine, p probe) ([]Result, error) {
		so := SearchOptions{Measure: p.measure, K: 8}
		if p.inline != nil {
			res, _, err := eng.Search(ctx, p.inline, so)
			return res, err
		}
		res, _, err := eng.SearchID(ctx, p.id, so)
		return res, err
	}
	// Reference: each probe brute-forced over its corpus.
	refs := map[bool]*bruteForce{false: newBruteForce(seedOf(false)), true: newBruteForce(seedOf(true))}
	want := make([][]Result, len(probes))
	for i, p := range probes {
		query := p.inline
		if query == nil {
			query = c.Repo.Snapshot().Get(p.id)
		}
		ref := refs[p.reverse]
		want[i] = ref.search(ref.measure(t, p.measure), query, 8)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				// Each goroutine walks the probes from its own offset, so
				// the two engines are always being searched at once.
				for k := range probes {
					i := (k*7 + g*len(probes)/4) % len(probes)
					got, err := run(engines[probes[i].reverse], probes[i])
					if err != nil {
						t.Error(err)
						return
					}
					if diff := sameResults(got, want[i]); diff != "" {
						t.Errorf("goroutine %d, probe %d (%+v): %s", g, i, probes[i], diff)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for reverse, eng := range engines {
		if st := eng.LabelSimStats(); st.Entries == 0 || st.Entries > st.Capacity {
			t.Errorf("engine (reverse=%v) label memo = %+v, want 0 < entries <= capacity", reverse, st)
		}
	}
}

// TestSearchAndReplaceLeaveNothingBehind: every inline search scores a fresh
// private copy of its query and every Replace retires a revision; neither may
// stay reachable from a process-lifetime structure (the registry's projector
// used to keep both, with their projections, forever: about 38 heap objects
// per inline search). After 300 inline searches and 100 replaces of one ID on
// a 40-workflow engine the live heap holds about what it held before.
func TestSearchAndReplaceLeaveNothingBehind(t *testing.T) {
	ctx := context.Background()
	p := TavernaProfile()
	p.Workflows = 40
	p.Clusters = 4
	c, err := GenerateCorpus(p, 29)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(c.Repo, testShardOpts(t)...)
	if err != nil {
		t.Fatal(err)
	}
	wfs := c.Repo.Snapshot().Workflows()
	churn := func(n int) {
		for i := 0; i < n; i++ {
			q := wfs[i%len(wfs)].Clone()
			q.ID = "inline"
			if _, _, err := eng.Search(ctx, q, SearchOptions{K: 5}); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				rev := wfs[(i/3)%len(wfs)].Clone()
				rev.ID = wfs[0].ID
				if _, err := eng.Apply(ctx, ReplaceWorkflow(rev)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	liveObjects := func() uint64 {
		var ms runtime.MemStats
		for i := 0; i < 3; i++ { // cleanups and pool victims take a cycle or two
			runtime.GC()
		}
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	churn(30) // warm: memo, symbol table, pools
	before := liveObjects()
	churn(300)
	after := liveObjects()
	// The leak was > 11 000 objects over this loop; what legitimately moves
	// (map growth, pool contents) is a few hundred.
	if grown := int64(after) - int64(before); grown > 2000 {
		t.Errorf("live heap objects grew by %d (%d -> %d) over 300 inline searches and 100 replaces", grown, before, after)
	}
	runtime.KeepAlive(eng)
}

// TestCompareResolvesOutsideWorkflows: Compare scores a workflow another
// symbol table resolved (here: another GenerateCorpus's) on a private copy
// this engine's table resolves, as Search does with its query. Scored with
// the foreign module IDs, most of these pairs came out wrong (MS_ip_te_pll on
// 1000/1000: 0.857 instead of 0.645). Every score must equal, to the bit,
// the measure's score of unresolved clones of the same pair, which it
// resolves into a table of its own, and the caller's objects keep the
// resolution they came with. Run under -race -count=10 in CI.
func TestCompareResolvesOutsideWorkflows(t *testing.T) {
	ctx := context.Background()
	corpusOf := func(seed int64) *GeneratedCorpus {
		p := TavernaProfile()
		p.Workflows, p.Clusters = 30, 5
		c, err := GenerateCorpus(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	own, other := corpusOf(1), corpusOf(2)
	eng, err := New(own.Repo, testShardOpts(t)...)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"MS_np_ta_plm", "MS_np_ta_pll", "MS_ip_te_pll"}
	ref := newBruteForce(nil)
	for _, a := range own.Repo.Snapshot().Workflows()[:10] {
		for _, b := range other.Repo.Snapshot().Workflows()[:10] {
			got, err := eng.Compare(ctx, a, b, names...)
			if err != nil {
				t.Fatal(err)
			}
			for i, name := range names {
				want, err := ref.measure(t, name).Compare(a.Clone(), b.Clone())
				if err != nil {
					t.Fatal(err)
				}
				if got[i].Err != nil || got[i].Similarity != want {
					t.Errorf("%s on %s/%s: %v (err %v), want %v", name, a.ID, b.ID, got[i].Similarity, got[i].Err, want)
				}
			}
			if !b.ResolvedBy(other.Repo.Symtab()) {
				t.Fatalf("Compare changed the resolution of the caller's workflow %s", b.ID)
			}
		}
	}
}
