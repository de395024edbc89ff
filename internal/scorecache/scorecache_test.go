package scorecache

import (
	"fmt"
	"maps"
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

// checkCapacity fills c with three times want distinct keys: it must hold
// most of want entries and never more.
func checkCapacity(t *testing.T, c *Cache, want int) {
	t.Helper()
	for i := 0; i < 3*want; i++ {
		c.Put(PairKey("m", uint32(i+1), uint32(i+2), 1, 0), float64(i))
		if n := c.Len(); n > want {
			t.Fatalf("%d entries after %d puts into a cache of %d", n, i+1, want)
		}
	}
	// Keys spread over the lock shards by hash, so a shard can fill (and
	// evict) a little before the whole cache has.
	st := c.Stats()
	if st.Entries < want*9/10 {
		t.Errorf("%d entries after %d distinct puts, want close to %d", st.Entries, 3*want, want)
	}
	if st.Evictions != uint64(3*want-st.Entries) {
		t.Errorf("%d evictions after %d distinct puts into %d entries", st.Evictions, 3*want, st.Entries)
	}
}

func TestCapacityIsTheConfiguredSize(t *testing.T) {
	for _, size := range []int{1, 2, 3, 15, 16, 17, 100, 4096} {
		t.Run(fmt.Sprint(size), func(t *testing.T) { checkCapacity(t, New(size), size) })
	}
}

func TestDefaultSize(t *testing.T) {
	c := New(0)
	for i := 0; i < 2*DefaultSize; i++ {
		c.Put(PairKey("m", uint32(i+1), uint32(i+2), 1, 0), float64(i))
	}
	if n := c.Len(); n > DefaultSize || n < DefaultSize*9/10 {
		t.Errorf("New(0) holds %d entries after %d distinct puts, want DefaultSize (%d) or close to it", n, 2*DefaultSize, DefaultSize)
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
				k := PairKey(fmt.Sprint("m", i%5), uint32(i%100+1), uint32((i+w)%100+101), uint64(i%3), 0)
				if v, ok := c.Get(k); ok && v < 0 {
					t.Error("negative score")
				}
				c.Put(k, float64(i))
				if i%500 == 0 {
					c.Export(nil)
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() == 0 {
		t.Error("empty after concurrent fill")
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
	rev1 := c.Export(func(k Key) bool { return k.rev == 1 })
	if len(rev1) != 4 {
		t.Fatalf("filtered export returned %d entries, want 4", len(rev1))
	}
	for _, e := range rev1 {
		if e.Key.rev != 1 || e.Key.measure != "MS" || e.Score != float64(e.Key.a-1)/10 {
			t.Fatalf("filter leaked or garbled entry %+v", e)
		}
	}
	// Export is a read: hit/miss counters stay untouched.
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Export moved counters: %+v", st)
	}

	// Nor does it count as a use: a cache exported before every operation
	// evicts exactly what its unexported twin evicts.
	quiet, exported := New(48), New(48)
	for i := 0; i < 2000; i++ {
		k := PairKey("MS", uint32(i*7%150+1), 999, 1, 0)
		for _, c := range []*Cache{quiet, exported} {
			if i%3 == 0 {
				c.Get(k)
			} else {
				c.Put(k, float64(i))
			}
		}
		exported.Export(nil)
	}
	if a, b := contents(quiet), contents(exported); !maps.Equal(a, b) {
		t.Errorf("exporting changed what the cache keeps:\n without %v\n with    %v", a, b)
	}
}

// contents is the cache as a map.
func contents(c *Cache) map[Key]float64 {
	out := map[Key]float64{}
	for _, e := range c.Export(nil) {
		out[e.Key] = e.Score
	}
	return out
}

// TestMeasureNamesAreBounded: past maxMeasures distinct names the cache
// declines new ones — and keeps serving the ones it has.
func TestMeasureNamesAreBounded(t *testing.T) {
	c := New(64)
	for i := 0; i < maxMeasures; i++ {
		c.measureID(fmt.Sprint("m", i), true)
	}
	first, extra := PairKey("m0", 1, 2, 1, 0), PairKey("one too many", 1, 2, 1, 0)
	c.Put(first, 0.25)
	c.Put(extra, 0.5)
	if _, ok := c.Get(extra); ok {
		t.Error("a score under an uninterned measure name was served")
	}
	if v, ok := c.Get(first); !ok || v != 0.25 || c.Len() != 1 {
		t.Errorf("Get under an interned name = %v/%v with %d entries, want 0.25/true with 1", v, ok, c.Len())
	}
}
