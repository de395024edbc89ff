package scorecache

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// modelSize is the capacity of the caches the model tests drive: 16 lock
// shards of 6 entries in 10 cells each, small enough that a few dozen keys
// fill a shard, collide, and are evicted over and over.
const modelSize = 96

// newModelCache is a cache of modelSize with the model tests' measure names
// interned in a fixed order, so a key hashes alike in every such cache.
func newModelCache() *Cache {
	c := New(modelSize)
	c.measureID("m", true)
	for i := 0; i < 256; i++ {
		c.measureID(fmt.Sprint("n", i), true)
	}
	return c
}

// modelKeys is the key universe of the model tests, built against the
// tables' geometry rather than drawn at random:
//
//   - 20 keys that all land in one shard with their home cell among the last
//     two of its table or the first — one probe chain that runs across the
//     wrap-around, three times as many keys as the shard holds, so removals
//     shift entries from cell 0 back to the last cell;
//   - for four of them, five keys that differ from it in exactly one field —
//     Measure, Rev, Proj, A, B — and land in that same chain, where only the
//     comparison of the whole key tells them apart, and the key with A and B
//     swapped;
//   - 20 keys spread wherever the hash puts them.
func modelKeys(t testing.TB) []Key {
	c := newModelCache()
	collides := func(k Key) bool {
		h := hash(uint64(k.a)<<32|uint64(k.b), k.rev, k.proj, c.measureID(k.measure, false))
		s := c.shardOf(h)
		home := s.home(h)
		return s == &c.shards[3] && (home >= len(s.slots)-2 || home == 0)
	}
	// vary returns the first colliding key among k with one field set to 2, 3, ….
	vary := func(k Key, set func(k *Key, v uint32)) Key {
		for v := uint32(2); v < 1<<20; v++ {
			if set(&k, v); collides(k) {
				return k
			}
		}
		t.Fatalf("no colliding variant of %+v", k)
		return k
	}
	var keys []Key
	for a := uint32(1 << 20); len(keys) < 20; a++ {
		if k := (Key{measure: "m", a: a, b: a + 1, rev: 1<<32 | 1, proj: 1}); collides(k) {
			keys = append(keys, k)
		}
	}
	for _, k := range keys[:4] {
		keys = append(keys,
			vary(k, func(k *Key, v uint32) { k.measure = fmt.Sprint("n", v%256) }),
			vary(k, func(k *Key, v uint32) { k.rev = uint64(v) }),
			vary(k, func(k *Key, v uint32) { k.proj = uint64(v) }),
			vary(k, func(k *Key, v uint32) { k.a = v }),
			vary(k, func(k *Key, v uint32) { k.b = v }),
			Key{k.measure, k.b, k.a, k.rev, k.proj},
		)
	}
	for i := uint32(0); i < 20; i++ {
		keys = append(keys, PairKey("m", 1000+i, 2000+i*i, 1<<32|1, 0))
	}
	return keys
}

// entryLife is what the model remembers about a cached entry.
type entryLife struct {
	score  float64
	stored int // step of the Put that inserted it
	used   int // step of the last hit or overwrite, 0 if none
}

// replay runs ops — two bytes each: operation and key, then score — against
// a fresh cache and a map of what it must hold, and checks after every step:
//
//   - a Get hits exactly when the model holds that key, and returns the last
//     score put under it;
//   - every entry the cache exports is reachable from its home cell with that
//     score (so a removal never breaks a chain), and the export is the model;
//   - a Put of an absent key evicts at most one entry, of the key's own
//     shard, and only when that leaves Len where it was; Len never passes
//     the capacity; Stats counts exactly those evictions;
//   - the evicted entry, if it was ever hit or overwritten, leaves behind no
//     entry of its shard that was already there at that hit and has never
//     been used itself.
//
// It returns the final contents.
func replay(t testing.TB, keys []Key, ops []byte) map[Key]float64 {
	c := newModelCache()
	model := map[Key]*entryLife{}
	// cellOf is k's shard and the cell its probe chain leads to.
	cellOf := func(k Key) (*shard, *slot) {
		ab, id := uint64(k.a)<<32|uint64(k.b), c.measureID(k.measure, false)
		h := hash(ab, k.rev, k.proj, id)
		s := c.shardOf(h)
		return s, s.find(h, ab, k.rev, k.proj, id)
	}
	shardOf := func(k Key) *shard { s, _ := cellOf(k); return s }
	evictions := uint64(0)
	for step := 1; 2*step <= len(ops); step++ {
		op, k, score := ops[2*step-2]>>6, keys[int(ops[2*step-2]&63)%len(keys)], float64(ops[2*step-1])
		switch op {
		case 0: // Get
			got, ok := c.Get(k)
			life := model[k]
			if ok != (life != nil) || ok && got != life.score {
				t.Fatalf("step %d: Get(%+v) = %v/%v, model has %+v", step, k, got, ok, life)
			}
			if ok {
				life.used = step
			}
		case 1, 2: // Put
			before := c.Len()
			c.Put(k, score)
			if life := model[k]; life != nil {
				life.score, life.used = score, step
			} else {
				model[k] = &entryLife{score: score, stored: step}
			}
			held := map[Key]bool{}
			for _, e := range c.Export(nil) {
				held[e.Key] = true
			}
			for victim, life := range model {
				if held[victim] {
					continue
				}
				delete(model, victim)
				evictions++
				if c.Len() != before || shardOf(victim) != shardOf(k) {
					t.Fatalf("step %d: Put(%+v) evicted %+v of another shard, or with room to spare (%d -> %d entries)", step, k, victim, before, c.Len())
				}
				for other, o := range model {
					if life.used != 0 && o.used == 0 && o.stored < life.used && shardOf(other) == shardOf(victim) {
						t.Fatalf("step %d: evicted %+v (hit at step %d) before %+v (stored at step %d, never used)", step, victim, life.used, other, o.stored)
					}
				}
			}
		case 3: // Export: no effect on what is kept (the final contents are compared with an export-free run)
			c.Export(func(k Key) bool { return k.proj == 0 })
		}

		exported := c.Export(nil)
		if len(exported) != len(model) || c.Len() != len(model) || len(model) > modelSize {
			t.Fatalf("step %d: %d entries exported, Len %d, model holds %d, capacity %d", step, len(exported), c.Len(), len(model), modelSize)
		}
		for _, e := range exported {
			life := model[e.Key]
			_, cell := cellOf(e.Key)
			if life == nil || life.score != e.Score || cell.measure == 0 || cell.score != e.Score {
				t.Fatalf("step %d: exported %+v; model has %+v, its chain ends in %+v", step, e, life, *cell)
			}
		}
		if st := c.Stats(); st.Evictions != evictions {
			t.Fatalf("step %d: Stats counts %d evictions, %d entries went missing", step, st.Evictions, evictions)
		}
	}
	return contents(c)
}

// withoutExports drops the Export operations of ops.
func withoutExports(ops []byte) []byte {
	var out []byte
	for i := 0; i+1 < len(ops); i += 2 {
		if ops[i]>>6 != 3 {
			out = append(out, ops[i], ops[i+1])
		}
	}
	return out
}

// TestCacheModel replays seeded random operation sequences against the map
// model (see replay), and each again with its Exports left out: both runs
// must end holding the same entries.
func TestCacheModel(t *testing.T) {
	keys := modelKeys(t)
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*3000)
		r.Read(ops)
		if seed%2 == 0 {
			// Stay on the colliding chain (and its near-aliases) most of the time.
			for i := 0; i < len(ops); i += 2 {
				if r.Intn(4) != 0 {
					ops[i] = ops[i]&0xc0 | byte(r.Intn(44))
				}
			}
		}
		if with, without := replay(t, keys, ops), replay(t, keys, withoutExports(ops)); !maps.Equal(with, without) {
			t.Fatalf("seed %d: the cache ends as %v with Exports interleaved, as %v without", seed, with, without)
		}
	}
}

// FuzzCacheModel is TestCacheModel on sequences the fuzzer writes.
func FuzzCacheModel(f *testing.F) {
	keys := modelKeys(f)
	f.Add([]byte{})
	// Fill the colliding chain, hit its first keys, push the rest through.
	var seq []byte
	for i := 0; i < 20; i++ {
		seq = append(seq, 0x40|byte(i), byte(i))
	}
	for i := 0; i < 4; i++ {
		seq = append(seq, byte(i), 0)
	}
	for i := 0; i < 40; i++ {
		seq = append(seq, 0x40|byte(i%20), byte(i), 0xc0, 0)
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		replay(t, keys, ops)
	})
}
