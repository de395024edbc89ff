// Package repoknow derives knowledge from a workflow repository as a whole
// and applies it to structural comparison (Section 2.1.5 of Starlinger et
// al., PVLDB 2014): module usage frequencies, importance scoring, and the
// Importance Projection (ip) preprocessing that projects a workflow onto its
// most functionally relevant modules while preserving connectivity between
// them via transitive edges.
package repoknow

import "repro/internal/workflow"

// UsageStats counts how often canonical module labels occur across a
// repository. Labels used across many different workflows tend to name
// trivial, unspecific functionality (string splitting and the like), which
// motivates removing those modules before structural comparison. The counts
// are keyed by the label string, never by a symbol ID: a projector built
// from them scores workflows of any symbol table, or of none.
type UsageStats struct {
	// DocFreq counts, per canonicalized label, the number of distinct
	// workflows containing it (document frequency).
	DocFreq map[string]int
	// Workflows is the number of workflows scanned.
	Workflows int
	// Modules is the total number of modules scanned.
	Modules int
}

// CollectUsage scans a set of workflows and tallies module usage.
func CollectUsage(wfs []*workflow.Workflow) *UsageStats {
	s := &UsageStats{DocFreq: map[string]int{}}
	for _, wf := range wfs {
		s.Workflows++
		seen := map[string]bool{}
		for _, m := range wf.Modules {
			s.Modules++
			key := CanonicalLabel(m.Label)
			if !seen[key] {
				seen[key] = true
				s.DocFreq[key]++
			}
		}
	}
	return s
}

// CanonicalLabel folds author-specific label styling away: lowercase, strip
// non-alphanumeric characters, strip trailing digits (version suffixes such
// as "split_string_2"). "getPathwaysByGenes" and "get_pathways_by_genes"
// share a canonical form. It is defined in package workflow (where ingest
// resolution needs it) and re-exported here for compatibility.
func CanonicalLabel(label string) string { return workflow.CanonicalLabel(label) }

// Scorer assigns each module an importance score in [0,1]; modules scoring
// below a projector's threshold are removed by the projection.
type Scorer interface {
	Score(m *workflow.Module) float64
}

// TypeScorer is the paper's manually curated selection: modules performing
// predefined, trivial local operations (local workers, string constants,
// XML shims) are unimportant (score 0); everything else is important
// (score 1). This reproduces the manual type-based selection of
// Section 2.1.5.
type TypeScorer struct{}

// Score implements Scorer.
func (TypeScorer) Score(m *workflow.Module) float64 {
	if m.IsLocal() {
		return 0
	}
	return 1
}

// FrequencyScorer scores modules by inverse document frequency in a
// repository: score = 1 - df(label), where df is the fraction of workflows
// containing the canonicalized label. Labels spread across a large share of
// the repository provide unspecific shim functionality; labels confined to
// one functional family are informative. It implements the automatic
// derivation of importance from module usage frequencies that the paper
// names as future work (Sections 2.1.5 and 6).
type FrequencyScorer struct {
	stats *UsageStats
}

// NewFrequencyScorer builds a FrequencyScorer from usage statistics.
func NewFrequencyScorer(stats *UsageStats) *FrequencyScorer {
	return &FrequencyScorer{stats: stats}
}

// Score implements Scorer. It reads the module's label, so it scores a
// module of any workflow the same, whichever symbol table resolved it.
//
//wfsimvet:hotpath
func (f *FrequencyScorer) Score(m *workflow.Module) float64 {
	if f.stats.Workflows == 0 {
		return 1
	}
	df := float64(f.stats.DocFreq[CanonicalLabel(m.Label)]) / float64(f.stats.Workflows)
	return 1 - df
}

// Projector applies the Importance Projection: it keeps modules whose score
// meets Threshold, preserves all paths between kept modules as edges (via
// the construction of workflow.InducedSubgraph), and transitively reduces
// the result. Build one with NewProjector, which gives it its own projection
// slot name.
type Projector struct {
	Scorer    Scorer
	Threshold float64

	// id names this projector in the workflows' projection slots.
	id *workflow.ProjectorID
}

// NewProjector returns a caching projector with the given scorer and
// threshold. The paper's configuration corresponds to TypeScorer with
// threshold 0.5 (any positive threshold separates scores 0 and 1).
func NewProjector(s Scorer, threshold float64) *Projector {
	return &Projector{Scorer: s, Threshold: threshold, id: new(workflow.ProjectorID)}
}

// Project returns the importance projection of wf. The result is cached on
// the workflow itself (workflow.Projection), so repeated comparisons against
// a repository project each workflow once, and a cached projection is
// garbage exactly when its workflow is — the projector holds no reference to
// anything it projected, however long it lives and however many inline
// queries and replaced revisions pass through it. If no module meets the
// threshold the original workflow is returned unchanged (projecting to an
// empty graph would make every comparison degenerate).
func (p *Projector) Project(wf *workflow.Workflow) *workflow.Workflow {
	if c, ok := wf.Projection(p.id); ok {
		return c
	}
	var keep []int
	for i, m := range wf.Modules {
		if p.Scorer.Score(m) >= p.Threshold {
			keep = append(keep, i)
		}
	}
	out := wf
	if len(keep) > 0 && len(keep) < len(wf.Modules) {
		out = wf.InducedSubgraph(keep)
	}
	wf.SetProjection(p.id, out)
	return out
}

// MeanModuleCount reports the average number of modules per workflow before
// and after projection — the paper reports a drop from 11.3 to 4.7 on the
// myExperiment corpus.
func (p *Projector) MeanModuleCount(wfs []*workflow.Workflow) (before, after float64) {
	if len(wfs) == 0 {
		return 0, 0
	}
	var b, a int
	for _, wf := range wfs {
		b += wf.Size()
		a += p.Project(wf).Size()
	}
	n := float64(len(wfs))
	return float64(b) / n, float64(a) / n
}
