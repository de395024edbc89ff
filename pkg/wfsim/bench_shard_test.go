package wfsim

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// benchCorpus caches one generated corpus per size across benchmark runs:
// generation dominates setup at 10k workflows and must not pollute timings.
var (
	benchCorpusMu sync.Mutex
	benchCorpora  = map[int]*GeneratedCorpus{}
)

func benchCorpusN(tb testing.TB, n int) *GeneratedCorpus {
	tb.Helper()
	benchCorpusMu.Lock()
	defer benchCorpusMu.Unlock()
	if c, ok := benchCorpora[n]; ok {
		return c
	}
	p := TavernaProfile()
	p.Workflows = n
	p.Clusters = n / 12
	c, err := GenerateCorpus(p, 7)
	if err != nil {
		tb.Fatal(err)
	}
	benchCorpora[n] = c
	return c
}

// benchShardEngine builds an engine over the cached corpus, unsharded when
// shards == 1. No score cache: the point is the scan itself, not replaying
// cached scores, so every iteration re-evaluates every surviving pair.
func benchShardEngine(b *testing.B, n, shards int) *Engine {
	b.Helper()
	c := benchCorpusN(b, n)
	var opts []Option
	if shards > 1 {
		opts = append(opts, WithShards(shards))
	}
	eng, err := New(c.Repo, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkShardedSearch scans one query against the full corpus under the
// default measure at increasing shard counts — the scatter-gather read path
// against the single-engine baseline.
func BenchmarkShardedSearch(b *testing.B) {
	corpusSize := 10000
	if testing.Short() {
		corpusSize = 1000
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			eng := benchShardEngine(b, corpusSize, shards)
			query := benchCorpusN(b, corpusSize).Repo.Snapshot().Workflows()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Search(context.Background(), query, SearchOptions{K: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedDuplicates runs the full pair-matrix near-duplicate scan
// at increasing shard counts. The sharded path additionally specialises the
// measure per scan (projection hoisting plus label-pair memoization), which
// is where the single-core speedup comes from.
func BenchmarkShardedDuplicates(b *testing.B) {
	corpusSize := 10000
	if testing.Short() {
		corpusSize = 1000
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			eng := benchShardEngine(b, corpusSize, shards)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Duplicates(context.Background(), 0.8, DuplicateOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
