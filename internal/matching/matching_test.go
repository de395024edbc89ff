package matching

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// bruteForceMax finds the true maximum-weight matching by exhaustive search
// over all subsets of assignments (feasible only for tiny matrices).
func bruteForceMax(w Weights) float64 {
	n, m := w.Dims()
	best := 0.0
	var rec func(i int, usedJ int, acc float64)
	rec = func(i int, usedJ int, acc float64) {
		if acc > best {
			best = acc
		}
		if i >= n {
			return
		}
		rec(i+1, usedJ, acc) // leave row i unmatched
		for j := 0; j < m; j++ {
			if usedJ&(1<<uint(j)) == 0 && w[i][j] > 0 {
				rec(i+1, usedJ|1<<uint(j), acc+w[i][j])
			}
		}
	}
	rec(0, 0, 0)
	return best
}

// bruteForceMWNC finds the true maximum-weight non-crossing matching.
func bruteForceMWNC(w Weights) float64 {
	n, m := w.Dims()
	best := 0.0
	var rec func(i, j int, acc float64)
	rec = func(i, j int, acc float64) {
		if acc > best {
			best = acc
		}
		for a := i; a < n; a++ {
			for b := j; b < m; b++ {
				if w[a][b] > 0 {
					rec(a+1, b+1, acc+w[a][b])
				}
			}
		}
	}
	rec(0, 0, 0)
	return best
}

func randWeights(r *rand.Rand, n, m int) Weights {
	w := make(Weights, n)
	for i := range w {
		w[i] = make([]float64, m)
		for j := range w[i] {
			if r.Intn(3) > 0 {
				w[i][j] = float64(r.Intn(10)) / 10
			}
		}
	}
	return w
}

func TestMaxWeightSimple(t *testing.T) {
	// Greedy would pick (0,0)=0.9 then (1,1)=0.1 for 1.0;
	// optimum is (0,1)=0.8 + (1,0)=0.8 = 1.6.
	w := Weights{
		{0.9, 0.8},
		{0.8, 0.1},
	}
	m := MaxWeight(w)
	if got := m.TotalWeight(); math.Abs(got-1.6) > 1e-12 {
		t.Errorf("MaxWeight total = %v, want 1.6 (matching %v)", got, m)
	}
	g := Greedy(w)
	if got := g.TotalWeight(); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Greedy total = %v, want 1.0 (matching %v)", got, g)
	}
}

func TestMaxWeightRectangular(t *testing.T) {
	// 1 row, 3 cols and vice versa.
	w := Weights{{0.2, 0.9, 0.5}}
	m := MaxWeight(w)
	if len(m) != 1 || m[0].J != 1 {
		t.Errorf("matching = %v, want single pair (0,1)", m)
	}
	wt := Weights{{0.2}, {0.9}, {0.5}}
	m = MaxWeight(wt)
	if len(m) != 1 || m[0].I != 1 {
		t.Errorf("matching = %v, want single pair (1,0)", m)
	}
}

func TestMaxWeightZeroOmitted(t *testing.T) {
	w := Weights{
		{1, 0},
		{0, 0},
	}
	m := MaxWeight(w)
	if len(m) != 1 {
		t.Fatalf("matching = %v, want exactly one pair", m)
	}
	if m[0].I != 0 || m[0].J != 0 {
		t.Errorf("pair = %v, want (0,0)", m[0])
	}
}

func TestEmptyInputs(t *testing.T) {
	if m := MaxWeight(nil); m != nil {
		t.Errorf("MaxWeight(nil) = %v", m)
	}
	if m := Greedy(Weights{}); m != nil {
		t.Errorf("Greedy(empty) = %v", m)
	}
	if m := MaxWeightNonCrossing(nil); m != nil {
		t.Errorf("MWNC(nil) = %v", m)
	}
}

func TestMaxWeightNonCrossingSimple(t *testing.T) {
	// Crossing pairs (0,1) and (1,0) both weight 1; non-crossing optimum
	// can take only one of them.
	w := Weights{
		{0, 1},
		{1, 0},
	}
	m := MaxWeightNonCrossing(w)
	if got := m.TotalWeight(); got != 1 {
		t.Errorf("MWNC total = %v, want 1 (matching %v)", got, m)
	}
	if !m.IsNonCrossing() {
		t.Errorf("MWNC produced crossing matching %v", m)
	}
	// Diagonal is non-crossing and fully matchable.
	w = Weights{
		{1, 0, 0},
		{0, 1, 0},
		{0, 0, 1},
	}
	m = MaxWeightNonCrossing(w)
	if got := m.TotalWeight(); got != 3 {
		t.Errorf("diag MWNC total = %v, want 3", got)
	}
}

func TestPropertyMaxWeightOptimalVsBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := r.Intn(5)+1, r.Intn(5)+1
		w := randWeights(r, n, m)
		got := MaxWeight(w)
		if !got.IsValid(n, m) {
			return false
		}
		return math.Abs(got.TotalWeight()-bruteForceMax(w)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMWNCOptimalVsBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := r.Intn(5)+1, r.Intn(5)+1
		w := randWeights(r, n, m)
		got := MaxWeightNonCrossing(w)
		if !got.IsValid(n, m) || !got.IsNonCrossing() {
			return false
		}
		return math.Abs(got.TotalWeight()-bruteForceMWNC(w)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyGreedyValidAndBoundedByOptimal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := r.Intn(6)+1, r.Intn(6)+1
		w := randWeights(r, n, m)
		g := Greedy(w)
		if !g.IsValid(n, m) {
			return false
		}
		opt := MaxWeight(w).TotalWeight()
		// Greedy is a 1/2-approximation for weighted matching.
		return g.TotalWeight() <= opt+1e-9 && g.TotalWeight() >= opt/2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMWNCBoundedByMaxWeight(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := r.Intn(6)+1, r.Intn(6)+1
		w := randWeights(r, n, m)
		return MaxWeightNonCrossing(w).TotalWeight() <= MaxWeight(w).TotalWeight()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIsNonCrossing(t *testing.T) {
	if !(Matching{{I: 0, J: 0}, {I: 1, J: 2}}).IsNonCrossing() {
		t.Error("increasing matching misreported as crossing")
	}
	if (Matching{{I: 0, J: 2}, {I: 1, J: 0}}).IsNonCrossing() {
		t.Error("crossing matching misreported as non-crossing")
	}
}

func TestIsValid(t *testing.T) {
	if !(Matching{{I: 0, J: 1}, {I: 1, J: 0}}).IsValid(2, 2) {
		t.Error("valid matching rejected")
	}
	if (Matching{{I: 0, J: 0}, {I: 0, J: 1}}).IsValid(2, 2) {
		t.Error("duplicate left index accepted")
	}
	if (Matching{{I: 0, J: 5}}).IsValid(2, 2) {
		t.Error("out-of-range index accepted")
	}
}

func BenchmarkMaxWeight10x10(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	w := randWeights(r, 10, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MaxWeight(w)
	}
}

func BenchmarkMaxWeight50x50(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	w := randWeights(r, 50, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MaxWeight(w)
	}
}

func BenchmarkGreedy50x50(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	w := randWeights(r, 50, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Greedy(w)
	}
}

func BenchmarkMWNC50x50(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	w := randWeights(r, 50, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MaxWeightNonCrossing(w)
	}
}

// referenceMaxWeight is MaxWeight as it stood before the Hungarian core moved
// onto pooled flat arrays, kept verbatim as the oracle: per-call cost matrix,
// per-row minv/used, result gathered by column and sorted by I.
func referenceMaxWeight(w Weights) Matching {
	n, m := w.Dims()
	if n == 0 || m == 0 {
		return nil
	}
	size := n
	if m > size {
		size = m
	}
	// Hungarian algorithm solves min-cost assignment; negate weights.
	// cost is 1-indexed per the classic potentials formulation.
	const inf = 1e18
	cost := make([][]float64, size+1)
	for i := range cost {
		cost[i] = make([]float64, size+1)
	}
	for i := 1; i <= size; i++ {
		for j := 1; j <= size; j++ {
			if i <= n && j <= m {
				cost[i][j] = -w[i-1][j-1]
			}
		}
	}
	u := make([]float64, size+1)
	v := make([]float64, size+1)
	p := make([]int, size+1) // p[j] = row assigned to column j
	way := make([]int, size+1)
	for i := 1; i <= size; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, size+1)
		used := make([]bool, size+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0, delta, j1 := p[j0], inf, 0
			for j := 1; j <= size; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0][j] - u[i0] - v[j]
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
	var out Matching
	for j := 1; j <= size; j++ {
		i := p[j]
		if i >= 1 && i <= n && j <= m && w[i-1][j-1] > 0 {
			out = append(out, Pair{I: i - 1, J: j - 1, Weight: w[i-1][j-1]})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].I < out[b].I })
	return out
}

// oracleMatrix draws an n×m matrix whose weights come from a three-value set,
// so equal-weight optima — where a changed row order, padding or tie rule
// would pick a different matching — dominate. Some rows and columns are
// zeroed entirely.
func oracleMatrix(r *rand.Rand, n, m int) Weights {
	vals := [3]float64{0, 0.3, 0.7}
	w := make(Weights, n)
	for i := range w {
		w[i] = make([]float64, m)
		for j := range w[i] {
			w[i][j] = vals[r.Intn(3)]
		}
	}
	if n > 1 && r.Intn(3) == 0 {
		clear(w[r.Intn(n)])
	}
	if m > 1 && r.Intn(3) == 0 {
		j := r.Intn(m)
		for i := range w {
			w[i][j] = 0
		}
	}
	return w
}

// TestMaxWeightMatchesReference compares the scratch-reusing MaxWeight and
// MaxWeightTotal with the reference on seeded random matrices: the same
// pairs in the same order, and totals equal to the bit.
func TestMaxWeightMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	check := func(name string, w Weights) {
		t.Helper()
		want, got := referenceMaxWeight(w), MaxWeight(w)
		if len(got) != len(want) {
			t.Fatalf("%s: %d pairs, reference %d\nw = %v", name, len(got), len(want), w)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: pair %d = %+v, reference %+v\nw = %v", name, k, got[k], want[k], w)
			}
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("%s: nil-ness differs: got %v, reference %v", name, got, want)
		}
		if a, b := MaxWeightTotal(w), want.TotalWeight(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: MaxWeightTotal = %x, reference total %x\nw = %v", name, math.Float64bits(a), math.Float64bits(b), w)
		}
	}
	check("nil", nil)
	check("no columns", Weights{{}, {}})
	check("1x1 zero", Weights{{0}})
	check("1x1", Weights{{0.7}})
	for k := 0; k < 2400; k++ {
		// Tall, wide and square, in an order that makes the pooled scratch
		// shrink and grow between runs.
		n, m := 1+r.Intn(9), 1+r.Intn(9)
		if k%8 == 0 {
			n, m = 1+r.Intn(24), 1+r.Intn(24)
		}
		check("tied", oracleMatrix(r, n, m))
		if k%3 == 0 {
			check("dense", randWeights(r, n, m))
		}
	}
}
