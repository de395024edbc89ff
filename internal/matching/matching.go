// Package matching implements the module-mapping strategies of Section 2.1.2
// of Starlinger et al. (PVLDB 2014): greedy selection of mapped modules,
// maximum-weight bipartite matching (mw), and maximum-weight non-crossing
// matching (mwnc, Malucelli/Ottmann/Pretolani 1993) for ordered
// decompositions such as paths.
//
// All strategies operate on a dense weight matrix w[i][j] >= 0 giving the
// similarity of left element i to right element j. Pairs of weight 0 are
// never part of a returned matching: a zero-similarity mapping carries no
// information and would only distort additive scores.
//
// The maximum-weight matching runs once per workflow pair of a scan, so its
// Hungarian core works on pooled flat arrays and MaxWeightTotal returns the
// score without building the Matching. Which optimum the algorithm returns
// among equal-weight ones depends on the row order and the square padding;
// both are fixed, and a verbatim copy of the original implementation in the
// tests holds the pooled one to the same pairs and the same float bits.
package matching

import (
	"sort"
	"sync"
)

// Pair maps left element I to right element J with similarity Weight.
type Pair struct {
	I, J   int
	Weight float64
}

// Matching is a set of pairwise disjoint Pairs.
type Matching []Pair

// TotalWeight returns the additive similarity score of the matching —
// the nnsim of the paper's set-based measures.
func (m Matching) TotalWeight() float64 {
	var s float64
	for _, p := range m {
		s += p.Weight
	}
	return s
}

// Weights is a dense similarity matrix: Weights[i][j] is the similarity of
// left element i to right element j. Rows must have equal length.
type Weights [][]float64

// Dims returns the matrix dimensions (rows, cols).
func (w Weights) Dims() (int, int) {
	if len(w) == 0 {
		return 0, 0
	}
	return len(w), len(w[0])
}

// Greedy computes a matching by repeatedly selecting the highest-weight
// still-available pair, as used by Silva et al. for Module Sets comparison.
// Ties are broken by lower (i, then j) for determinism.
func Greedy(w Weights) Matching {
	n, m := w.Dims()
	if n == 0 || m == 0 {
		return nil
	}
	type cand struct {
		i, j int
		wt   float64
	}
	cands := make([]cand, 0, n*m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if w[i][j] > 0 {
				cands = append(cands, cand{i, j, w[i][j]})
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].wt != cands[b].wt {
			return cands[a].wt > cands[b].wt
		}
		if cands[a].i != cands[b].i {
			return cands[a].i < cands[b].i
		}
		return cands[a].j < cands[b].j
	})
	usedI := make([]bool, n)
	usedJ := make([]bool, m)
	var out Matching
	for _, c := range cands {
		if usedI[c.i] || usedJ[c.j] {
			continue
		}
		usedI[c.i], usedJ[c.j] = true, true
		out = append(out, Pair{I: c.i, J: c.j, Weight: c.wt})
	}
	sortMatching(out)
	return out
}

// MaxWeight computes a maximum-weight bipartite matching (the paper's mw)
// using the Hungarian algorithm with potentials in O(n^3). The matrix need
// not be square; it is implicitly padded with zero-weight dummy elements.
// Zero-weight assignments are dropped from the result, so the returned
// matching maximises total weight over all (partial) matchings. Pairs are
// returned in ascending I order.
func MaxWeight(w Weights) Matching {
	n, m := w.Dims()
	if n == 0 || m == 0 {
		return nil
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	var out Matching
	for i, j := range s.assign(w, n, m) {
		if j < 0 {
			continue
		}
		if out == nil {
			out = make(Matching, 0, min(n, m))
		}
		out = append(out, Pair{I: i, J: j, Weight: w[i][j]})
	}
	return out
}

// MaxWeightTotal returns MaxWeight(w).TotalWeight() — the same pairs summed
// in the same ascending I order, so the two agree to the bit — without
// building the Matching: the per-pair kernel of a Module Sets scan needs
// only the score, and allocates nothing here.
//
//wfsimvet:hotpath
func MaxWeightTotal(w Weights) float64 {
	n, m := w.Dims()
	if n == 0 || m == 0 {
		return 0
	}
	s := scratchPool.Get().(*scratch)
	var total float64
	for i, j := range s.assign(w, n, m) {
		if j >= 0 {
			total += w[i][j]
		}
	}
	scratchPool.Put(s)
	return total
}

// scratch is the working memory of one Hungarian run, reused across runs
// through scratchPool: a scan solves one assignment per workflow pair, and
// allocating these arrays per pair cost more than the algorithm's own loop.
type scratch struct {
	cost   []float64 // (size+1)² row-major, 1-indexed like u, v, p, way
	u, v   []float64 // row and column potentials
	minv   []float64
	p, way []int // p[j] = row assigned to column j
	used   []bool
	rowTo  []int // the result: rowTo[i] = column mapped to row i, or -1
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow sizes every array for a padded problem of the given size.
func (s *scratch) grow(size int) {
	k := size + 1
	if k > len(s.u) {
		s.cost = make([]float64, k*k)
		s.u, s.v, s.minv = make([]float64, k), make([]float64, k), make([]float64, k)
		s.p, s.way = make([]int, k), make([]int, k)
		s.used = make([]bool, k)
		s.rowTo = make([]int, k)
	}
}

// assign solves the n×m assignment problem over w, padded square with
// zero-weight dummies, and returns for each row the column it is mapped to,
// or -1 when it was assigned a dummy column or a zero-weight one (no
// mapping). The result is valid until the scratch is reused.
// Row order and padding are part of the contract: among equal-weight optima
// the Hungarian algorithm's answer depends on both, and scores must not move.
//
//wfsimvet:hotpath
func (s *scratch) assign(w Weights, n, m int) []int {
	size := max(n, m)
	s.grow(size)
	k := size + 1
	// Hungarian algorithm solves min-cost assignment; negate weights.
	// cost is 1-indexed per the classic potentials formulation.
	const inf = 1e18
	cost, u, v, minv := s.cost[:k*k], s.u[:k], s.v[:k], s.minv[:k]
	p, way, used := s.p[:k], s.way[:k], s.used[:k]
	clear(cost)
	for i, row := range w {
		c := cost[(i+1)*k+1:]
		for j, x := range row[:m] {
			c[j] = -x
		}
	}
	clear(u)
	clear(v)
	clear(p)
	clear(way)
	for i := 1; i <= size; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = inf
		}
		clear(used)
		for {
			used[j0] = true
			i0, delta, j1 := p[j0], inf, 0
			ci := cost[i0*k : i0*k+k]
			for j := 1; j <= size; j++ {
				if used[j] {
					continue
				}
				cur := ci[j] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= size; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
			if j0 == 0 {
				break
			}
		}
	}
	rowTo := s.rowTo[:n]
	for i := range rowTo {
		rowTo[i] = -1
	}
	for j := 1; j <= m; j++ {
		if i := p[j]; i >= 1 && i <= n && w[i-1][j-1] > 0 {
			rowTo[i-1] = j - 1
		}
	}
	return rowTo
}

// MaxWeightNonCrossing computes the maximum-weight non-crossing matching
// (the paper's mwnc) between two ordered sequences: the result never
// contains pairs (i,j) and (i+x, j-y) with x,y >= 1. This is the classic
// O(n*m) alignment DP:
//
//	f[i][j] = max(f[i-1][j], f[i][j-1], f[i-1][j-1] + w[i-1][j-1])
//
// with zero-weight pairs excluded from the reconstruction.
func MaxWeightNonCrossing(w Weights) Matching {
	n, m := w.Dims()
	if n == 0 || m == 0 {
		return nil
	}
	f := make([][]float64, n+1)
	for i := range f {
		f[i] = make([]float64, m+1)
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			best := f[i-1][j]
			if f[i][j-1] > best {
				best = f[i][j-1]
			}
			if d := f[i-1][j-1] + w[i-1][j-1]; d > best {
				best = d
			}
			f[i][j] = best
		}
	}
	// Reconstruct, preferring the diagonal when it attains the optimum and
	// carries positive weight.
	var out Matching
	i, j := n, m
	for i > 0 && j > 0 {
		switch {
		case w[i-1][j-1] > 0 && f[i][j] == f[i-1][j-1]+w[i-1][j-1]:
			out = append(out, Pair{I: i - 1, J: j - 1, Weight: w[i-1][j-1]})
			i--
			j--
		case f[i][j] == f[i-1][j]:
			i--
		default:
			j--
		}
	}
	// Reverse into ascending order.
	for a, b := 0, len(out)-1; a < b; a, b = a+1, b-1 {
		out[a], out[b] = out[b], out[a]
	}
	return out
}

func sortMatching(m Matching) {
	sort.Slice(m, func(a, b int) bool { return m[a].I < m[b].I })
}

// IsNonCrossing reports whether the matching, when sorted by I, has strictly
// increasing J — i.e. contains no crossing pairs.
func (m Matching) IsNonCrossing() bool {
	s := append(Matching(nil), m...)
	sortMatching(s)
	for k := 1; k < len(s); k++ {
		if s[k].J <= s[k-1].J {
			return false
		}
	}
	return true
}

// IsValid reports whether no left or right element is matched twice and all
// indexes are within the given dimensions.
func (m Matching) IsValid(n, mcols int) bool {
	seenI := map[int]bool{}
	seenJ := map[int]bool{}
	for _, p := range m {
		if p.I < 0 || p.I >= n || p.J < 0 || p.J >= mcols {
			return false
		}
		if seenI[p.I] || seenJ[p.J] {
			return false
		}
		seenI[p.I] = true
		seenJ[p.J] = true
	}
	return true
}
