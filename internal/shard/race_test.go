package shard

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/symtab"
	"repro/internal/workflow"
)

// versionMeasure scores a pair as the sum of the two workflows' content
// versions (parsed from the first module label, "v<n>"). Scores are then an
// exact function of the content a pin captured: a cache entry computed
// against one revision's content and served against another's is
// immediately visible as a wrong sum.
type versionMeasure struct{}

func (versionMeasure) Name() string { return "version_sum" }

func (versionMeasure) Compare(a, b *workflow.Workflow) (float64, error) {
	va, err := versionOf(a)
	if err != nil {
		return 0, err
	}
	vb, err := versionOf(b)
	if err != nil {
		return 0, err
	}
	return float64(va + vb), nil
}

func versionOf(wf *workflow.Workflow) (int, error) {
	if len(wf.Modules) == 0 {
		return 0, fmt.Errorf("workflow %s has no modules", wf.ID)
	}
	return strconv.Atoi(wf.Modules[0].Label[1:])
}

func versionWorkflow(id string, version int) *workflow.Workflow {
	return &workflow.Workflow{ID: id, Modules: []*workflow.Module{{Label: fmt.Sprintf("v%d", version)}}}
}

// TestRacePinnedReadsDuringApply runs readers against coordinator views
// while writers churn the corpus through two-phase Apply, under -race. Every
// ID alternates between two contents — version 0 and version 2^i, so a
// version sum names the content of both sides — and the writers hand the
// same two objects back each time, objects that pinned readers still hold:
// the repository must commit copies under fresh revisions, never resolve or
// restamp a visible object. The readers assert three invariants the
// coordinator documents:
//
//  1. A View is a commit-atomic frontier: generation vectors observed by
//     one reader never move backwards on any shard.
//  2. A pinned read is stable: the same View searched twice returns
//     identical results even while commits land in between.
//  3. No stale score is ever served: every result's similarity equals the
//     cache-less score of the *pinned* query and candidate content, even
//     though A→B→A brings each content back under a new revision and the
//     shards' score caches are small enough to churn and hold entries from
//     many revisions at once.
func TestRacePinnedReadsDuringApply(t *testing.T) {
	const nIDs = 24
	ids := make([]string, nIDs)
	seed := make([]*workflow.Workflow, nIDs)
	var contents [nIDs][2]*workflow.Workflow // the two objects each ID alternates between
	for i := range ids {
		ids[i] = fmt.Sprintf("wf-%02d", i)
		seed[i] = versionWorkflow(ids[i], 0)
		contents[i] = [2]*workflow.Workflow{seed[i], versionWorkflow(ids[i], 1<<i)}
	}

	const nShards = 3
	ring, err := NewRing(nShards)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]*workflow.Workflow, nShards)
	for _, wf := range seed {
		o := ring.Owner(wf.ID)
		parts[o] = append(parts[o], wf)
	}
	shards := make([]*Local, nShards)
	tab := symtab.New()
	for i := range shards {
		// A tiny cache forces eviction to race the generation churn.
		s, err := NewLocal(i, LocalConfig{CacheSize: 128, Seed: parts[i], Symtab: tab})
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		shards[i] = s
	}
	coord, err := NewCoordinator(shards)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close(nil)

	const (
		writers          = 2
		appliesPerWriter = 200
		readers          = 4
	)
	ctx := context.Background()
	var turn [nIDs]atomic.Int64 // writes so far, per ID
	var writersDone atomic.Int64
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writersDone.Add(1)
			for i := 0; i < appliesPerWriter; i++ {
				n := (w*appliesPerWriter + i) % nIDs
				wf := contents[n][turn[n].Add(1)%2]
				if _, err := coord.Apply([]corpus.Op{{Kind: corpus.OpReplace, ID: ids[n], Workflow: wf}}); err != nil {
					t.Errorf("writer %d: Apply: %v", w, err)
					return
				}
			}
		}(w)
	}

	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			lastGens := make([]uint64, nShards)
			for iter := 0; writersDone.Load() < writers; iter++ {
				v := coord.View()
				gens := v.Generations()
				for i, g := range gens {
					if g < lastGens[i] {
						t.Errorf("reader %d: shard %d generation moved backwards %d -> %d", rd, i, lastGens[i], g)
						return
					}
					lastGens[i] = g
				}

				id := ids[(rd*7+iter)%nIDs]
				query := v.Get(id)
				if query == nil {
					t.Errorf("reader %d: pinned view lost %s", rd, id)
					return
				}
				q := Query{Query: query, Cacheable: true, K: nIDs}
				res, _, err := coord.Search(ctx, v, NewScanPrep(versionMeasure{}, 0), q)
				if err != nil {
					t.Errorf("reader %d: Search: %v", rd, err)
					return
				}
				for _, r := range res {
					want, err := versionMeasure{}.Compare(query, v.Get(r.ID))
					if err != nil {
						t.Errorf("reader %d: %v", rd, err)
						return
					}
					if r.Similarity != want {
						t.Errorf("reader %d: query %s vs %s scored %v, want %v: score not computed against the pinned content (stale revision served)",
							rd, id, r.ID, r.Similarity, want)
						return
					}
				}

				// The same view searched again must reproduce the results
				// exactly, however many commits landed in between.
				again, _, err := coord.Search(ctx, v, NewScanPrep(versionMeasure{}, 0), q)
				if err != nil {
					t.Errorf("reader %d: re-Search: %v", rd, err)
					return
				}
				if len(again) != len(res) {
					t.Errorf("reader %d: pinned re-read returned %d results, first read %d", rd, len(again), len(res))
					return
				}
				for i := range res {
					if res[i] != again[i] {
						t.Errorf("reader %d: pinned re-read diverged at rank %d: %+v then %+v", rd, i, res[i], again[i])
						return
					}
				}
			}
		}(rd)
	}
	wg.Wait()
}
