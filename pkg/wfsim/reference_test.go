package wfsim

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/measures"
	"repro/internal/search"
	"repro/internal/shard"
	"repro/internal/symtab"
	"repro/internal/workflow"
)

// bruteForce is the test-only reference the engine's shard, cache, index,
// floor, memo and storage plumbing is held to. It keeps its own clones of a
// corpus, resolved by a symbol table no engine shares; it runs the parsed
// measure's Compare, which has no memo, on every pair, in
// workflow.IDsInOrder orientation as the engine's scans do; and it shares no
// shard, cache, index or memo code with the engine. Pairs a measure fails on
// are left out, as the engine skips them. checkSchedule replays every state
// of its schedule into one and scores through memoMeasure, which holds each
// score of a measure package oracle defines to the oracle's: a fault in a
// kernel shows against the oracle, a fault in the plumbing against the
// reference.
type bruteForce struct {
	tab     *symtab.Table
	wfs     []*Workflow // clones tab resolved, in ID order
	project measures.Projector
}

// newBruteForce holds deep clones of wfs, resolved by a private table.
func newBruteForce(wfs []*Workflow) *bruteForce {
	r := &bruteForce{tab: symtab.New(), wfs: make([]*Workflow, len(wfs))}
	for i, wf := range wfs {
		r.wfs[i] = wf.Clone()
		r.wfs[i].Resolve(r.tab)
	}
	sort.Slice(r.wfs, func(i, j int) bool { return r.wfs[i].ID < r.wfs[j].ID })
	return r
}

// measure parses name as an engine with a generous GED budget would, under
// the reference's projection (nil: the registry's type-based one). "LS" is
// the label-set measure, which the schedule's engines register under that
// name.
func (r *bruteForce) measure(t testing.TB, name string) Measure {
	t.Helper()
	if name == "LS" {
		return measures.LabelSets{}
	}
	reg := NewRegistry()
	project := r.project
	if project == nil {
		project = reg.project
	}
	m, err := reg.parseResolved(name, time.Minute, DefaultGEDBeamWidth, project)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// score compares the pair in ID order.
func (r *bruteForce) score(m Measure, a, b *Workflow) (float64, error) {
	if !workflow.IDsInOrder(a.ID, b.ID) {
		a, b = b, a
	}
	return m.Compare(a, b)
}

// ranking scores every corpus workflow against q, a workflow the
// reference's table resolved — the one under q's ID only if includeQuery —
// and returns them all in SortResults order.
func (r *bruteForce) ranking(m Measure, q *Workflow, includeQuery bool) []Result {
	var out []Result
	for _, wf := range r.wfs {
		if wf.ID == q.ID && !includeQuery {
			continue
		}
		if s, err := r.score(m, q, wf); err == nil {
			out = append(out, Result{ID: wf.ID, Similarity: s})
		}
	}
	search.SortResults(out)
	return out
}

// search ranks every corpus workflow but the one under the query's ID
// against a clone of query the reference's table resolves and returns the k
// best.
func (r *bruteForce) search(m Measure, query *Workflow, k int) []Result {
	q := query.Clone()
	q.ResolveModules(r.tab)
	out := r.ranking(m, q, false)
	return out[:min(k, len(out))]
}

// duplicates returns every pair scoring at least threshold.
func (r *bruteForce) duplicates(m Measure, threshold float64) []Pair {
	var out []Pair
	for i, a := range r.wfs {
		for _, b := range r.wfs[i+1:] {
			if s, err := r.score(m, a, b); err == nil && s >= threshold {
				out = append(out, Pair{A: a.ID, B: b.ID, Similarity: s})
			}
		}
	}
	shard.SortPairs(out)
	return out
}

// cluster clusters the corpus by average linkage at minSim; a pair the
// measure fails on has similarity 0.
func (r *bruteForce) cluster(m Measure, minSim float64) [][]string {
	n := len(r.wfs)
	mat := &cluster.Matrix{IDs: make([]string, n), Sim: make([][]float64, n)}
	for i, wf := range r.wfs {
		mat.IDs[i] = wf.ID
		mat.Sim[i] = make([]float64, n)
		mat.Sim[i][i] = 1
	}
	for i := range r.wfs {
		for j := i + 1; j < n; j++ {
			if s, err := r.score(m, r.wfs[i], r.wfs[j]); err == nil {
				mat.Sim[i][j], mat.Sim[j][i] = s, s
			}
		}
	}
	c := cluster.Agglomerative(mat, minSim)
	out := make([][]string, c.K)
	for k, members := range c.Members() {
		for _, i := range members {
			out[k] = append(out[k], mat.IDs[i])
		}
	}
	return out
}

// assertSearchesMatch holds eng's default-measure top-5 for each query ID to
// the reference over wfs.
func assertSearchesMatch(t *testing.T, eng *Engine, wfs []*Workflow, ids ...string) {
	t.Helper()
	ref := newBruteForce(wfs)
	m := ref.measure(t, DefaultMeasure)
	for _, id := range ids {
		got, _, err := eng.SearchID(context.Background(), id, SearchOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameResults(got, ref.search(m, eng.Read().Get(id), 5)); diff != "" {
			t.Errorf("query %s: %s", id, diff)
		}
	}
}
