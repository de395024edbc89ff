// Package cluster implements similarity-based workflow clustering — one of
// the repository-management challenges motivating the paper (Section 1:
// "grouping of workflows into functional clusters", after Silva et al. 2011
// and Santos et al. 2008). Any similarity measure from package measures can
// drive the clustering.
//
// Two methods are provided: average-linkage agglomerative clustering with a
// similarity cut-off, and a simple threshold-graph connected-components
// clustering (single linkage), both operating on a precomputed similarity
// matrix.
package cluster

import (
	"fmt"
	"slices"
	"sort"
)

// Matrix is a symmetric similarity matrix over a repository's workflows
// (built by shard.Coordinator.Matrix, indexed in ID order).
type Matrix struct {
	IDs []string
	Sim [][]float64
	// Skipped counts pairs the measure could not score (treated as
	// similarity 0).
	Skipped int
}

// Clustering assigns each workflow (by matrix index) to a cluster.
type Clustering struct {
	// Assign[i] is the cluster id of workflow i; ids are dense from 0.
	Assign []int
	// K is the number of clusters.
	K int
}

// Members returns the workflow indexes per cluster.
func (c Clustering) Members() [][]int {
	out := make([][]int, c.K)
	for i, k := range c.Assign {
		out[k] = append(out[k], i)
	}
	return out
}

// Agglomerative performs average-linkage agglomerative clustering: starting
// from singletons, the two clusters with the highest average pairwise
// similarity are merged while that similarity is at least minSim.
func Agglomerative(m *Matrix, minSim float64) Clustering {
	n := len(m.IDs)
	if n == 0 {
		return Clustering{}
	}
	// active clusters as index sets.
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	avg := func(a, b []int) float64 {
		var s float64
		for _, i := range a {
			for _, j := range b {
				s += m.Sim[i][j]
			}
		}
		return s / float64(len(a)*len(b))
	}
	for len(clusters) > 1 {
		bi, bj, best := -1, -1, minSim
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if s := avg(clusters[i], clusters[j]); s >= best {
					bi, bj, best = i, j, s
				}
			}
		}
		if bi < 0 {
			break
		}
		clusters[bi] = append(clusters[bi], clusters[bj]...)
		clusters = append(clusters[:bj], clusters[bj+1:]...)
	}
	return toClustering(clusters, n)
}

// Components clusters by connected components of the threshold graph:
// workflows i and j are linked iff Sim[i][j] >= minSim (single linkage).
func Components(m *Matrix, minSim float64) Clustering {
	n := len(m.IDs)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if m.Sim[i][j] >= minSim {
				parent[find(i)] = find(j)
			}
		}
	}
	groups := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	clusters := make([][]int, 0, len(roots))
	for _, r := range roots {
		clusters = append(clusters, groups[r])
	}
	return toClustering(clusters, n)
}

func toClustering(clusters [][]int, n int) Clustering {
	// Deterministic cluster ids: order clusters by smallest member index.
	sort.Slice(clusters, func(a, b int) bool {
		return slices.Min(clusters[a]) < slices.Min(clusters[b])
	})
	assign := make([]int, n)
	for k, members := range clusters {
		for _, i := range members {
			assign[i] = k
		}
	}
	return Clustering{Assign: assign, K: len(clusters)}
}

// Quality metrics against a reference assignment (e.g. generator ground
// truth): the Rand index and purity.

// RandIndex computes the fraction of workflow pairs on which two
// clusterings agree (same-cluster vs different-cluster).
func RandIndex(a, b Clustering) (float64, error) {
	if len(a.Assign) != len(b.Assign) {
		return 0, fmt.Errorf("cluster: assignments differ in length: %d vs %d", len(a.Assign), len(b.Assign))
	}
	n := len(a.Assign)
	if n < 2 {
		return 1, nil
	}
	agree, total := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			total++
			sameA := a.Assign[i] == a.Assign[j]
			sameB := b.Assign[i] == b.Assign[j]
			if sameA == sameB {
				agree++
			}
		}
	}
	return float64(agree) / float64(total), nil
}

// Purity computes the weighted fraction of each found cluster occupied by
// its dominant reference cluster.
func Purity(found, ref Clustering) (float64, error) {
	if len(found.Assign) != len(ref.Assign) {
		return 0, fmt.Errorf("cluster: assignments differ in length")
	}
	n := len(found.Assign)
	if n == 0 {
		return 1, nil
	}
	correct := 0
	for _, members := range found.Members() {
		counts := map[int]int{}
		for _, i := range members {
			counts[ref.Assign[i]]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		correct += best
	}
	return float64(correct) / float64(n), nil
}
