// Package wfsim is the public API of the workflow-similarity library — a
// stable facade over the internal reproduction of Starlinger, Brancotte,
// Cohen-Boulakia and Leser, "Similarity Search for Scientific Workflows"
// (PVLDB 7(12), 2014).
//
// The entry point is Engine, seeded from a Repository of workflows (which it
// takes over: afterwards the corpus is read through Engine.Read and changed
// through Engine.Apply) with functional options:
//
//	repo, _ := wfsim.LoadRepository("corpus.json")
//	eng, _ := wfsim.New(repo,
//		wfsim.WithIndex(1),              // filter-and-refine for measures without a score bound
//		wfsim.WithConcurrency(8),        // worker-pool width
//		wfsim.WithGEDBudget(5*time.Second, 64),
//	)
//	results, stats, err := eng.SearchID(ctx, "1189", wfsim.SearchOptions{
//		Measure: "MS_ip_te_pll", K: 10,
//	})
//
// Every method takes a context: cancellation drains the internal worker
// pools promptly, and a context deadline bounds the whole call — including
// the per-pair graph-edit-distance budget, the API form of the paper's
// GED-timeout semantics.
//
// The engine's corpus is mutable and snapshot-versioned, matching the
// paper's living-repository setting. Engine.Apply commits a transactional
// batch of AddWorkflow / RemoveWorkflow / ReplaceWorkflow mutations under a
// new generation number; every read pins an immutable view — a Reader, whose
// lookups, frontier, stats and scoring operations all answer from it — so
// in-flight queries are never torn by writers. With WithIndex the inverted label
// index is maintained incrementally (O(labels) per op, tombstones plus
// periodic compaction — never a full rebuild), and WithScoreCache adds a
// fixed-capacity table of pairwise scores keyed by measure, ID pair and the
// two workflows' revisions — a commit retires only the pairs it wrote a side
// of — shared across Search, Duplicates and Cluster:
//
//	eng, _ := wfsim.New(repo, wfsim.WithIndex(1), wfsim.WithScoreCache(1<<16))
//	gen, err := eng.Apply(ctx, wfsim.AddWorkflow(wf), wfsim.RemoveWorkflow("42"))
//	results, stats, _ := eng.SearchID(ctx, "1189", wfsim.SearchOptions{K: 10})
//	// stats.Generation == gen; stats.CacheHits/CacheMisses report cache reuse.
//
// Measures are named in the paper's notation and resolved through a
// Registry: "BW", "BT", "{MS|PS|GE}_{np|ip}_{ta|tm|te}_{scheme}" with
// optional "_greedy"/"_nonorm" suffixes, shorthand forms such as "MS_plm"
// (missing tokens default to np and ta), and ensembles written either
// "ENS(BW+MS_ip_te_pll)" or "ensemble(BW, MS_ip_te_pll)". Custom Measure
// implementations can be registered under new names and combined into
// ensembles like any built-in.
package wfsim
