package scorecache

import (
	"sync"
	"testing"
)

func TestPairKeyCanonicalOrder(t *testing.T) {
	if PairKey("m", 2, 1, 3, 0) != PairKey("m", 1, 2, 3, 0) {
		t.Error("pair order not canonicalized")
	}
	if PairKey("m", 1, 2, 3, 0) == PairKey("m", 1, 2, 4, 0) {
		t.Error("generation not part of the key")
	}
	if PairKey("m1", 1, 2, 3, 0) == PairKey("m2", 1, 2, 3, 0) {
		t.Error("measure not part of the key")
	}
	if PairKey("m", 1, 2, 3, 1) == PairKey("m", 1, 2, 3, 2) {
		t.Error("projector epoch not part of the key")
	}
}

// TestSelfPairKeys: a self-pair (a == b) is an ordinary key — canonical
// ordering is a no-op, and it never collides with a pair sharing one side.
func TestSelfPairKeys(t *testing.T) {
	c := New(64)
	self := PairKey("m", 7, 7, 1, 0)
	c.Put(self, 1.0)
	if v, ok := c.Get(PairKey("m", 7, 7, 1, 0)); !ok || v != 1.0 {
		t.Fatalf("self-pair lookup = %v/%v", v, ok)
	}
	// A projector change must retire the cached self-pair too.
	if _, ok := c.Get(PairKey("m", 7, 7, 1, 1)); ok {
		t.Error("self-pair served across projector epochs")
	}
	if self == PairKey("m", 7, 8, 1, 0) {
		t.Error("self-pair collides with a distinct pair")
	}
}

func TestGetPutAndCounters(t *testing.T) {
	c := New(64)
	k := PairKey("MS", 1, 2, 0, 0)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, 0.75)
	v, ok := c.Get(PairKey("MS", 2, 1, 0, 0)) // symmetric lookup
	if !ok || v != 0.75 {
		t.Fatalf("got %v/%v", v, ok)
	}
	// Overwrite updates in place.
	c.Put(k, 0.5)
	if v, _ := c.Get(k); v != 0.5 {
		t.Errorf("overwrite lost: %v", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 || st.Evictions != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(shardCount) // one entry per shard
	var keys []Key
	for i := 0; i < 10*shardCount; i++ {
		k := PairKey("m", uint32(2*i+1), uint32(2*i+2), 1, 0)
		keys = append(keys, k)
		c.Put(k, float64(i))
	}
	if n := c.Len(); n > shardCount {
		t.Errorf("cache over capacity: %d entries", n)
	}
	// The oldest keys of each shard must be gone.
	present := 0
	for _, k := range keys {
		if _, ok := c.Get(k); ok {
			present++
		}
	}
	if present > shardCount {
		t.Errorf("%d entries survived in a %d-capacity cache", present, shardCount)
	}
	// Every Put that did not grow the cache pushed an entry out, and only
	// those did.
	if st := c.Stats(); st.Evictions != uint64(len(keys)-st.Entries) {
		t.Errorf("evictions = %d after %d puts into %d entries, want %d", st.Evictions, len(keys), st.Entries, len(keys)-st.Entries)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := PairKey("m", uint32(i%100+1), uint32((i+w)%100+101), uint64(i%3), 0)
				if v, ok := c.Get(k); ok && v < 0 {
					t.Error("negative score")
				}
				c.Put(k, float64(i))
			}
		}(w)
	}
	wg.Wait()
	if c.Len() == 0 {
		t.Error("empty after concurrent fill")
	}
}

func TestDefaultSize(t *testing.T) {
	c := New(0)
	if c.perShardCap*shardCount < DefaultSize {
		t.Errorf("default capacity too small: %d", c.perShardCap*shardCount)
	}
}

func TestExportFiltersWithoutTouchingRecency(t *testing.T) {
	c := New(64)
	for i := 0; i < 8; i++ {
		rev := uint64(i % 2)
		c.Put(PairKey("MS", uint32(i+1), 999, rev, 0), float64(i)/10)
	}
	all := c.Export(nil)
	if len(all) != 8 {
		t.Fatalf("Export(nil) returned %d entries, want 8", len(all))
	}
	rev1 := c.Export(func(k Key) bool { return k.Rev == 1 })
	if len(rev1) != 4 {
		t.Fatalf("filtered export returned %d entries, want 4", len(rev1))
	}
	for _, e := range rev1 {
		if e.Key.Rev != 1 {
			t.Fatalf("filter leaked entry %+v", e)
		}
	}
	// Export is a read: hit/miss counters stay untouched.
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Export moved counters: %+v", st)
	}
}
