// Package shard partitions a workflow corpus across N in-process shards and
// coordinates reads and transactional writes over them, for the
// similarity-search workloads of Starlinger et al.
//
// Ownership is by consistent-hashed workflow ID: a Ring maps every ID to
// exactly one shard, each shard owns its slice of the corpus together with
// its inverted label index, its pairwise score cache and (optionally) its
// own durable store, and a Coordinator implements the engine's read/write
// surface on top — routing mutation batches to the owning shards with
// all-or-nothing validation, fanning a search out to every shard via
// search.Batched and merging the per-shard top-k lists deterministically.
// Whole-corpus pair scans (Duplicates, Matrix) are one walk over the pinned
// view's union in ID order; each row scores through the cache of the shard
// that owns its workflow.
package shard

import (
	"fmt"
	"sort"
)

// ringReplicas is the number of virtual nodes per shard on the ring. It is
// part of the durable partitioning contract: changing it would re-home
// workflow IDs, so the value is fixed and recorded via the layout marker
// format version (see layout.go).
const ringReplicas = 64

// Ring is a consistent-hash ring assigning workflow IDs to shard indices.
// The assignment is a pure function of (ID, shard count): two rings built
// for the same N agree across processes and restarts.
type Ring struct {
	n      int
	hashes []uint64 // sorted virtual-node positions
	owners []int    // owners[i] = shard owning hashes[i]
}

// NewRing builds the ring for n shards (n >= 1).
func NewRing(n int) (*Ring, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: ring needs at least 1 shard, got %d", n)
	}
	r := &Ring{n: n}
	if n == 1 {
		return r, nil // everything belongs to shard 0; no ring walk needed
	}
	type point struct {
		hash  uint64
		shard int
	}
	points := make([]point, 0, n*ringReplicas)
	for s := 0; s < n; s++ {
		for v := 0; v < ringReplicas; v++ {
			h := fnv64(fmt.Sprintf("shard-%d-vnode-%d", s, v))
			points = append(points, point{h, s})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].shard < points[j].shard // stable under (astronomically unlikely) collisions
	})
	r.hashes = make([]uint64, len(points))
	r.owners = make([]int, len(points))
	for i, p := range points {
		r.hashes[i] = p.hash
		r.owners[i] = p.shard
	}
	return r, nil
}

// Shards returns the number of shards the ring distributes over.
func (r *Ring) Shards() int { return r.n }

// Owner returns the shard index owning the given workflow ID.
func (r *Ring) Owner(id string) int {
	if r.n == 1 {
		return 0
	}
	h := fnv64(id)
	// First virtual node clockwise from h, wrapping past the end.
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.owners[i]
}

// fnv64 is FNV-1a with a splitmix64 finalizer, inlined to keep Owner
// allocation-free on the hot path. Plain FNV-1a diffuses the final bytes of
// short strings poorly — sequential IDs ("wf-0001", "wf-0002", ...) land in
// clumps, starving shards of the ring — so the finalizer's avalanche step is
// part of the partitioning contract, like ringReplicas.
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
