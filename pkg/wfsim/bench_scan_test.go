package wfsim

import (
	"context"
	"testing"
)

// scanBenchHot is the number of repository IDs BenchmarkSearchIDHot cycles
// through, as many as the search_hot load workload queries.
const scanBenchHot = 16

// benchScanEngine is a 2 000-workflow engine with the default score cache.
func benchScanEngine(b *testing.B) *Engine {
	b.Helper()
	eng, err := New(benchCorpusN(b, 2000).Repo, WithScoreCache(0))
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// reportScan reports the scan work per search alongside the time.
func reportScan(b *testing.B, scored, bounded int) {
	b.ReportMetric(float64(scored)/float64(b.N), "scored/op")
	b.ReportMetric(float64(bounded)/float64(b.N), "bounded/op")
}

// BenchmarkSearchIDHot searches by ID over a few hot queries whose pairs are
// all cached: no kernel runs, so what is measured is the scan around the
// cache — worker start-up, cache lookups, bounds, top-k. Run it at -cpu 1,2
// to see whether a second worker pays for itself.
func BenchmarkSearchIDHot(b *testing.B) {
	ctx := context.Background()
	eng := benchScanEngine(b)
	var ids []string
	for _, wf := range benchCorpusN(b, 2000).Repo.Snapshot().Workflows()[:scanBenchHot] {
		ids = append(ids, wf.ID)
	}
	for _, id := range ids {
		if _, _, err := eng.SearchID(ctx, id, SearchOptions{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
	scored, bounded := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := eng.SearchID(ctx, ids[i%len(ids)], SearchOptions{K: 10})
		if err != nil {
			b.Fatal(err)
		}
		scored, bounded = scored+st.Scored, bounded+st.Bounded
	}
	reportScan(b, scored, bounded)
}

// BenchmarkSearchInline searches with queries from outside the corpus: no
// pair is cacheable, so every pair the score bound does not eliminate runs
// the kernel.
func BenchmarkSearchInline(b *testing.B) { benchSearchInline(b, "") }

// BenchmarkSearchInlinePW3 is BenchmarkSearchInline under the paper's tuned
// multi-attribute scheme over every module pair: labels, scripts and
// descriptions by edit distance, services and types exactly, every one of
// them compared by symbol.
func BenchmarkSearchInlinePW3(b *testing.B) { benchSearchInline(b, "MS_np_ta_pw3") }

func benchSearchInline(b *testing.B, measure string) {
	ctx := context.Background()
	eng := benchScanEngine(b)
	queries := inlineQueries(b)
	scored, bounded := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := eng.Search(ctx, queries[i%len(queries)], SearchOptions{K: 10, Measure: measure})
		if err != nil {
			b.Fatal(err)
		}
		scored, bounded = scored+st.Scored, bounded+st.Bounded
	}
	reportScan(b, scored, bounded)
}

// inlineQueries returns scanBenchHot workflows from outside the benchmark
// corpus, under IDs it does not hold.
func inlineQueries(tb testing.TB) []*Workflow {
	tb.Helper()
	p := TavernaProfile()
	p.Workflows, p.Clusters = scanBenchHot, scanBenchHot/2
	qc, err := GenerateCorpus(p, 8)
	if err != nil {
		tb.Fatal(err)
	}
	var queries []*Workflow
	for _, wf := range qc.Repo.Snapshot().Workflows() {
		q := wf.Clone()
		q.ID = "inline-" + q.ID // generated IDs would collide with the corpus's
		queries = append(queries, q)
	}
	return queries
}
