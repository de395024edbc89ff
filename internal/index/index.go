// Package index accelerates similarity search over large repositories with a
// filter-and-refine strategy: an inverted index over canonicalized module
// labels generates candidate workflows sharing vocabulary with the query,
// and only candidates are scored exactly. The paper's conclusion calls for
// "topological information with less computational complexity"; candidate
// pruning is the standard systems answer for the module-set side.
//
// The filter is lossless for strict label matching (plm: workflows sharing
// no canonical label have similarity 0) and a high-recall heuristic for
// edit-distance schemes (two workflows can have nonzero label edit
// similarity without sharing a token). CaptureCandidates reports the live
// count beside the candidates, so callers see how many workflows were pruned
// and can trade recall for speed consciously.
//
// The index is incrementally maintainable: Insert and Delete update the
// postings and per-workflow label lists in O(labels of the workflow) instead
// of rescanning the corpus, so a mutable repository never pays a full Build
// on churn. Deletions tombstone their posting positions and a periodic
// compaction sweeps dead entries once they outnumber a quarter of the index;
// compaction reuses the stored canonical label lists, so even it never
// re-canonicalizes a module label. All methods are safe for concurrent use:
// mutations take a write lock, and searches capture a consistent candidate
// set under a read lock before scoring it (search.TopK) outside any lock.
package index

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/corpus"
	"repro/internal/symtab"
	"repro/internal/workflow"
)

// Source is any provider of workflows to index: a pinned corpus.Snapshot or
// a search.List.
type Source interface {
	Workflows() []*workflow.Workflow
}

// entry is one indexed workflow slot. Deleted entries stay in place as
// tombstones (dead = true) until compaction renumbers the positions.
// Labels are stored as canonical-label symbol IDs in the index's table.
type entry struct {
	wf     *workflow.Workflow
	labels []uint32
	dead   bool
}

// Index is an inverted index from canonical module labels — represented
// as interned symbol IDs — to workflows.
type Index struct {
	mu          sync.RWMutex
	syms        *symtab.Table    // symbol space of the posting keys
	posting     map[uint32][]int // canonical label symbol -> entry positions
	entries     []entry          // position -> indexed workflow
	byID        map[string]int   // live workflow ID -> position
	dead        int              // tombstoned entries awaiting compaction
	gen         uint64           // repository generation this index reflects
	compactions int
}

// compactionThreshold: compact once tombstones are at least a quarter of all
// entries (and more than a handful, so tiny indexes don't churn).
const compactionMinDead = 32

// New returns an empty index ready for incremental Insert calls.
func New() *Index {
	return &Index{
		posting: map[uint32][]int{},
		byID:    map[string]int{},
	}
}

// Build scans the source once and indexes every workflow under the
// canonical forms of its module labels (see repoknow.CanonicalLabel).
func Build(src Source) *Index {
	idx := New()
	idx.mu.Lock()
	defer idx.mu.Unlock()
	for _, wf := range src.Workflows() {
		idx.insertLocked(wf)
	}
	return idx
}

// labelIDsLocked returns the deduplicated canonical-label symbol IDs of a
// workflow in the index's symbol space. A workflow resolved by the same
// table contributes its cached sorted label set with no canonicalization
// at all; anything else (unresolved, or resolved by a foreign table) is
// canonicalized and interned here. The first insert fixes the index's
// table — adopting the repository's shared table when available — so one
// index always speaks one ID space.
func (idx *Index) labelIDsLocked(wf *workflow.Workflow) []uint32 {
	if t := wf.SymtabRef(); t != nil && (idx.syms == nil || idx.syms == t) {
		idx.syms = t
		return wf.LabelSet()
	}
	if idx.syms == nil {
		idx.syms = symtab.New()
	}
	seen := map[uint32]bool{}
	var out []uint32
	for _, m := range wf.Modules {
		key := workflow.CanonicalLabel(m.Label)
		if key == "" {
			continue
		}
		id := idx.syms.Intern(key)
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	return out
}

func (idx *Index) insertLocked(wf *workflow.Workflow) {
	pos := len(idx.entries)
	labels := idx.labelIDsLocked(wf)
	idx.entries = append(idx.entries, entry{wf: wf, labels: labels})
	idx.byID[wf.ID] = pos
	for _, key := range labels {
		idx.posting[key] = append(idx.posting[key], pos)
	}
}

// Insert indexes one workflow in O(its labels). The ID must not already be
// indexed (Replace handles updates).
func (idx *Index) Insert(wf *workflow.Workflow) error {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	return idx.insertChecked(wf)
}

func (idx *Index) insertChecked(wf *workflow.Workflow) error {
	if wf == nil || wf.ID == "" {
		return fmt.Errorf("index: workflow without ID")
	}
	if _, dup := idx.byID[wf.ID]; dup {
		return fmt.Errorf("index: workflow %q already indexed", wf.ID)
	}
	idx.insertLocked(wf)
	return nil
}

// Delete tombstones the workflow with the given ID in O(1); its posting
// positions are swept by a later compaction. It reports whether the ID was
// indexed.
func (idx *Index) Delete(id string) bool {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	ok := idx.deleteLocked(id)
	idx.maybeCompactLocked()
	return ok
}

func (idx *Index) deleteLocked(id string) bool {
	pos, ok := idx.byID[id]
	if !ok {
		return false
	}
	idx.entries[pos].dead = true
	idx.entries[pos].wf = nil
	delete(idx.byID, id)
	idx.dead++
	return true
}

// Apply maintains the index for a validated corpus mutation batch under one
// write lock, stamping gen — the repository generation the batch committed —
// in the same critical section, so concurrent searches observe either none
// or all of the batch and the generation check can never pass against a
// half-stamped index. Ops are assumed pre-validated by
// corpus.Repository.ApplyBatch; an error here means the index has drifted
// from the repository and the caller should rebuild it (the generation is
// left unstamped in that case).
func (idx *Index) Apply(ops []corpus.Op, gen uint64) error {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	// Validation pass against a staged membership overlay, so a drifted
	// batch is rejected whole and never leaves the index half-applied.
	staged := map[string]bool{}
	present := func(id string) bool {
		if stagedState, ok := staged[id]; ok {
			return stagedState
		}
		_, ok := idx.byID[id]
		return ok
	}
	for _, op := range ops {
		switch op.Kind {
		case corpus.OpAdd:
			if op.Workflow == nil || op.Workflow.ID == "" {
				return fmt.Errorf("index: workflow without ID")
			}
			if present(op.Workflow.ID) {
				return fmt.Errorf("index: workflow %q already indexed", op.Workflow.ID)
			}
			staged[op.Workflow.ID] = true
		case corpus.OpRemove:
			if !present(op.ID) {
				return fmt.Errorf("index: workflow %q not indexed", op.ID)
			}
			staged[op.ID] = false
		case corpus.OpReplace:
			if op.Workflow == nil || op.Workflow.ID == "" {
				return fmt.Errorf("index: workflow without ID")
			}
			if !present(op.Workflow.ID) {
				return fmt.Errorf("index: workflow %q not indexed", op.Workflow.ID)
			}
		default:
			return fmt.Errorf("index: invalid op kind %d", op.Kind)
		}
	}
	for _, op := range ops {
		switch op.Kind {
		case corpus.OpAdd:
			idx.insertLocked(op.Workflow)
		case corpus.OpRemove:
			idx.deleteLocked(op.ID)
		case corpus.OpReplace:
			idx.deleteLocked(op.Workflow.ID)
			idx.insertLocked(op.Workflow)
		}
	}
	idx.maybeCompactLocked()
	idx.gen = gen
	return nil
}

// maybeCompactLocked sweeps tombstones once they pass the threshold.
func (idx *Index) maybeCompactLocked() {
	if idx.dead < compactionMinDead || idx.dead*4 < len(idx.entries) {
		return
	}
	idx.compactLocked()
}

// compactLocked renumbers live entries and rebuilds the postings from the
// stored canonical label lists — O(total live labels), no module rescans.
func (idx *Index) compactLocked() {
	live := make([]entry, 0, len(idx.entries)-idx.dead)
	idx.byID = make(map[string]int, len(idx.entries)-idx.dead)
	idx.posting = make(map[uint32][]int, len(idx.posting))
	for _, e := range idx.entries {
		if e.dead {
			continue
		}
		pos := len(live)
		live = append(live, e)
		idx.byID[e.wf.ID] = pos
		for _, key := range e.labels {
			idx.posting[key] = append(idx.posting[key], pos)
		}
	}
	idx.entries = live
	idx.dead = 0
	idx.compactions++
}

// SetGeneration records the repository generation the index now reflects.
func (idx *Index) SetGeneration(gen uint64) {
	idx.mu.Lock()
	idx.gen = gen
	idx.mu.Unlock()
}

// Generation returns the repository generation the index reflects.
func (idx *Index) Generation() uint64 {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return idx.gen
}

// Stats describes the index's incremental-maintenance state.
type Stats struct {
	// Live is the number of searchable workflows.
	Live int
	// Dead is the number of tombstoned entries awaiting compaction.
	Dead int
	// Vocabulary is the number of distinct canonical labels indexed.
	Vocabulary int
	// Compactions counts tombstone sweeps since construction.
	Compactions int
	// Generation is the repository generation the index reflects.
	Generation uint64
}

// Stats returns the current maintenance statistics.
func (idx *Index) Stats() Stats {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return Stats{
		Live:        len(idx.entries) - idx.dead,
		Dead:        idx.dead,
		Vocabulary:  len(idx.posting),
		Compactions: idx.compactions,
		Generation:  idx.gen,
	}
}

// Size returns the number of live (searchable) workflows.
func (idx *Index) Size() int {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return len(idx.entries) - idx.dead
}

// candidatesLocked computes candidate positions under the caller's read
// lock, skipping tombstones.
//
//wfsimvet:hotpath
func (idx *Index) candidatesLocked(query *workflow.Workflow, minShared int) []int {
	if minShared < 1 {
		minShared = 1
	}
	counts := map[int]int{}
	for _, key := range idx.queryLabelIDsLocked(query) {
		for _, pos := range idx.posting[key] {
			if idx.entries[pos].dead {
				continue
			}
			counts[pos]++
		}
	}
	out := make([]int, 0, len(counts))
	for pos, c := range counts {
		if c >= minShared {
			out = append(out, pos)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if counts[out[i]] != counts[out[j]] {
			return counts[out[i]] > counts[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// queryLabelIDsLocked projects the query's deduplicated canonical labels
// into the index's symbol space without interning: a label the table has
// never seen cannot have postings, so it is skipped. A query resolved by
// the index's own table short-circuits to its cached sorted label set.
func (idx *Index) queryLabelIDsLocked(query *workflow.Workflow) []uint32 {
	if idx.syms == nil {
		return nil
	}
	if query.ResolvedBy(idx.syms) {
		return query.LabelSet()
	}
	seen := map[uint32]bool{}
	var out []uint32
	for _, m := range query.Modules {
		key := workflow.CanonicalLabel(m.Label)
		if key == "" {
			continue
		}
		id, ok := idx.syms.Lookup(key)
		if !ok || seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	return out
}

// Candidates returns the positions of live workflows sharing at least
// minShared canonical labels with the query, sorted by descending overlap
// count. minShared < 1 is treated as 1. Positions are only stable until the
// next compaction; prefer CaptureCandidates for scoring.
func (idx *Index) Candidates(query *workflow.Workflow, minShared int) []int {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return idx.candidatesLocked(query, minShared)
}

// CaptureCandidates returns the live workflows sharing at least minShared
// canonical labels with the query (in Candidates order) together with the
// live workflow count, both read under one read lock: a search racing a
// mutation batch sees either the whole batch or none of it, and scores the
// captured workflows outside any lock. live - len(cands) is the number of
// workflows the filter pruned.
func (idx *Index) CaptureCandidates(query *workflow.Workflow, minShared int) (cands []*workflow.Workflow, live int) {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	positions := idx.candidatesLocked(query, minShared)
	cands = make([]*workflow.Workflow, len(positions))
	for i, pos := range positions {
		cands[i] = idx.entries[pos].wf
	}
	return cands, len(idx.entries) - idx.dead
}
