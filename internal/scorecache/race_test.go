package scorecache

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRaceEvictionVsGenerationBump drives a deliberately tiny cache (a
// handful of entries per shard, so every Put races an eviction) with
// concurrent scorers while a mutator thread bumps the revision new keys
// carry. Scores are written as float64(key.Rev), so a Get that returns a
// value disagreeing with its own key's revision means the cache served a
// score computed on a different content version — the staleness bug the
// revision-keyed design exists to rule out. Run under
// -race this also shakes out lock-ordering mistakes between Put's eviction
// path and Get's recency update.
func TestRaceEvictionVsGenerationBump(t *testing.T) {
	c := New(64) // 4 entries per shard: constant eviction under the load below
	ids := make([]uint32, 24)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}

	var gen atomic.Uint64
	stop := make(chan struct{})
	var mutator sync.WaitGroup
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			gen.Add(1)
			runtime.Gosched()
		}
	}()

	const (
		workers = 8
		iters   = 4000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				g := gen.Load()
				k := PairKey("m", ids[r.Intn(len(ids))], ids[r.Intn(len(ids))], g, 0)
				c.Put(k, float64(g))
				// Read back at the current generation and at an older one:
				// both may miss (eviction is racing us), but a hit must
				// carry the score written under exactly that key's
				// generation.
				if s, ok := c.Get(k); ok && s != float64(g) {
					t.Errorf("Get(gen=%d) = %v, want %v: stale-generation score served", g, s, float64(g))
				}
				if g > 0 {
					old := PairKey("m", ids[r.Intn(len(ids))], ids[r.Intn(len(ids))], g-1, 0)
					if s, ok := c.Get(old); ok && s != float64(g-1) {
						t.Errorf("Get(gen=%d) = %v, want %v: stale-generation score served", g-1, s, float64(g-1))
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	mutator.Wait()

	if c.Len() > 64 {
		t.Errorf("cache grew past its capacity under churn: %d entries", c.Len())
	}
	st := c.Stats()
	if st.Hits == 0 {
		t.Error("no cache hit in the entire run; the race exercised nothing")
	}
}
