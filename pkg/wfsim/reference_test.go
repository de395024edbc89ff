package wfsim

import (
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/search"
	"repro/internal/shard"
	"repro/internal/symtab"
	"repro/internal/workflow"
)

// bruteForce is the test-only reference the engine's shard, cache, index and
// memo plumbing is held to. It keeps deep clones of a corpus, resolved once
// into a private symbol table; it runs the parsed measure's Compare, which
// has no memo, on every pair, in workflow.IDsInOrder orientation as the
// engine's scans do; and it shares no shard, cache, index, memo or symbol
// table with the engine. Pairs a measure fails on are left out, as the
// engine skips them. The measures themselves are held to package oracle's
// string definitions (FuzzMeasuresMatchOracle).
type bruteForce struct {
	tab *symtab.Table
	wfs []*Workflow // clones tab resolved, in ID order
}

func newBruteForce(wfs []*Workflow) *bruteForce {
	r := &bruteForce{tab: symtab.New(), wfs: make([]*Workflow, len(wfs))}
	for i, wf := range wfs {
		r.wfs[i] = wf.Clone()
		r.wfs[i].Resolve(r.tab)
	}
	sort.Slice(r.wfs, func(i, j int) bool { return r.wfs[i].ID < r.wfs[j].ID })
	return r
}

// measure parses name with a fresh registry: the engine's default projector
// and GED budget.
func (r *bruteForce) measure(t testing.TB, name string) Measure {
	t.Helper()
	m, err := NewRegistry().Parse(name)
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

// search ranks every corpus workflow but the one under the query's ID
// against a clone of query the reference's table resolves and returns the k
// best.
func (r *bruteForce) search(m Measure, query *Workflow, k int) []Result {
	q := query.Clone()
	q.ResolveModules(r.tab)
	var out []Result
	for _, wf := range r.wfs {
		if wf.ID == q.ID {
			continue
		}
		if s, err := r.score(m, q, wf); err == nil {
			out = append(out, Result{ID: wf.ID, Similarity: s})
		}
	}
	search.SortResults(out)
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
