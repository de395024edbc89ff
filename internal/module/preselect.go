package module

import (
	"math"
	"sync"

	"repro/internal/matching"
	"repro/internal/workflow"
)

// Preselect is a module-pair preselection strategy (Section 2.1.5): it
// decides which pairs from the Cartesian product of two module sets are
// candidates for comparison at all. Excluded pairs receive similarity 0
// without being compared, which both restricts the mapping and reduces
// runtime (the paper reports a 2.3x reduction in pairwise comparisons
// for type equivalence).
type Preselect int

const (
	// AllPairs compares every pair (the paper's "ta").
	AllPairs Preselect = iota
	// TypeMatch requires strict equality of module types ("tm").
	TypeMatch
	// TypeEquivalence requires membership in the same type-equivalence
	// class ("te"), after the categorisation of Wassink et al. 2009.
	TypeEquivalence
)

// String returns the notation token used in algorithm names.
func (p Preselect) String() string {
	switch p {
	case AllPairs:
		return "ta"
	case TypeMatch:
		return "tm"
	case TypeEquivalence:
		return "te"
	}
	return "t?"
}

// TypeClass is an equivalence class of module types.
type TypeClass int

// Equivalence classes over module types. The web-service class absorbs the
// many spellings under which Taverna types web services ('wsdl',
// 'arbitrarywsdl', 'soaplabwsdl', ...), which motivated the te strategy.
const (
	ClassWebService TypeClass = iota
	ClassScript
	ClassLocal
	ClassDataflow
	ClassTool
	ClassOther
)

// String implements fmt.Stringer.
func (c TypeClass) String() string {
	switch c {
	case ClassWebService:
		return "webservice"
	case ClassScript:
		return "script"
	case ClassLocal:
		return "local"
	case ClassDataflow:
		return "dataflow"
	case ClassTool:
		return "tool"
	}
	return "other"
}

// ClassOf maps a module type identifier to its equivalence class.
func ClassOf(typ string) TypeClass {
	switch typ {
	case workflow.TypeWSDL, workflow.TypeArbitraryWSDL, workflow.TypeSoaplabWSDL,
		workflow.TypeBioMoby, workflow.TypeRESTService:
		return ClassWebService
	case workflow.TypeBeanshell, workflow.TypeRShell, workflow.TypeScript:
		return ClassScript
	case workflow.TypeLocalWorker, workflow.TypeStringConst,
		workflow.TypeXMLSplitter, workflow.TypeXMLMerger:
		return ClassLocal
	case workflow.TypeDataflow:
		return ClassDataflow
	case workflow.TypeTool:
		return ClassTool
	}
	return ClassOther
}

// numClasses is the number of type classes; a workflow.ModuleClasses must
// have a counter for each.
const numClasses = int(ClassOther) + 1

var _ [workflow.MaxModuleClasses - numClasses]struct{} // numClasses fits

// Classes returns the type class of each of wf's modules and the number of
// modules per class. The summary is cached on the workflow, so a scan
// classifies each workflow once, not once per pair.
//
//wfsimvet:hotpath
func Classes(wf *workflow.Workflow) *workflow.ModuleClasses {
	if c := wf.ModuleClasses(); c != nil {
		return c
	}
	c := &workflow.ModuleClasses{Of: make([]uint8, len(wf.Modules))}
	for i, m := range wf.Modules {
		k := ClassOf(m.Type)
		c.Of[i] = uint8(k)
		c.Count[k]++
	}
	wf.SetModuleClasses(c)
	return c
}

// MatchCap returns an upper bound on the number of pairs in any one-to-one
// mapping between two workflows' modules that uses only pairs the strategy
// admits. No module-pair weight exceeds 1, so it also bounds the mapping's
// total weight. Under te a pair maps inside one type class, so a class
// contributes at most the smaller of its two counts; equal types share a
// class, so the same sum holds for tm; ta admits everything and leaves the
// smaller workflow's size.
//
//wfsimvet:hotpath
func (p Preselect) MatchCap(a, b *workflow.ModuleClasses) int {
	if p == AllPairs {
		return min(len(a.Of), len(b.Of))
	}
	n := 0
	for c := 0; c < numClasses; c++ {
		n += int(min(a.Count[c], b.Count[c]))
	}
	return n
}

// Allows reports whether the pair (a, b) is a candidate for comparison
// under the strategy. Like the similarity kernel it compares type symbols, so
// a and b must belong to workflows one symbol table resolved.
func (p Preselect) Allows(a, b *workflow.Module) bool {
	switch p {
	case AllPairs:
		return true
	case TypeMatch:
		return a.Syms[workflow.AttrType] == b.Syms[workflow.AttrType]
	case TypeEquivalence:
		return ClassOf(a.Type) == ClassOf(b.Type)
	}
	return false
}

// PairStats reports how many module pairs a strategy admits out of the
// Cartesian product — the quantity behind the paper's reported 2.3x
// comparison reduction.
type PairStats struct {
	Total    int // |V1| * |V2|
	Compared int // pairs admitted by the preselection
}

// WeightMatrix computes the dense module-similarity matrix between the
// module sets of two workflows under the given scheme and preselection.
// Pairs excluded by the preselection get weight 0 without being compared.
// It returns the matrix together with comparison statistics.
func WeightMatrix(a, b *workflow.Workflow, s Scheme, p Preselect) (matching.Weights, PairStats) {
	return WeightMatrixMemo(a, b, s, p, nil)
}

// WeightMatrixMemo is WeightMatrix with a memo (which may be nil) threaded
// through the attribute comparisons. The matrix is freshly allocated and the
// caller's to keep; scan kernels that only need it for the duration of one
// comparison use AcquireMatrix instead.
func WeightMatrixMemo(a, b *workflow.Workflow, s Scheme, p Preselect, memo *SimMemo) (matching.Weights, PairStats) {
	var mx Matrix
	mx.fill(a, b, s, p, memo, RowStop{})
	return mx.W, mx.Stats
}

// Matrix is a module-similarity matrix over reusable storage: the rows of W
// are slices of one flat buffer. A whole-corpus scan computes one matrix per
// workflow pair and drops it after the mapping step, so scan kernels borrow
// a Matrix from a pool (AcquireMatrix) and hand it back (Release) instead of
// allocating rows per pair.
type Matrix struct {
	// W is the weight matrix; valid until Release, and only if the fill was
	// not stopped.
	W matching.Weights
	// Stats counts the module pairs compared.
	Stats PairStats
	// Stopped reports that the fill ended early at a RowStop, and StopBound
	// is the bound on the total weight of any matching that stopped it.
	Stopped   bool
	StopBound float64

	flat   []float64
	rowSum float64   // sum of the row maxima, accumulated in row order
	colMax []float64 // column maxima
}

// RowStop lets a caller that only wants a matrix whose matchings can reach
// some level give up on it part-way. After each row but the last, the fill
// computes RowBound, an upper bound on the total weight of any matching of
// the finished matrix; when that bound is below Cap, it asks Below about it
// and stops the fill if Below says yes. The zero RowStop fills every cell.
type RowStop struct {
	// Cap is an integer no smaller than the total weight of any matching
	// (Preselect.MatchCap): a row bound at or above it says nothing more,
	// so Below is not asked.
	Cap float64
	// Below reports whether a matching of total weight at most nnsim is of
	// no use to the caller. Nil means never.
	Below func(nnsim float64) bool
}

var matrixPool = sync.Pool{New: func() any { return new(Matrix) }}

// AcquireMatrix computes the weight matrix of WeightMatrixMemo over pooled
// storage, stopping early when stop says so (mx.Stopped). The caller must
// Release it and must not retain W afterwards.
//
//wfsimvet:hotpath
func AcquireMatrix(a, b *workflow.Workflow, s Scheme, p Preselect, memo *SimMemo, stop RowStop) *Matrix {
	mx := matrixPool.Get().(*Matrix)
	mx.fill(a, b, s, p, memo, stop)
	return mx
}

// Release returns the matrix's storage to the pool.
func (mx *Matrix) Release() { matrixPool.Put(mx) }

// fill computes the matrix of a's × b's modules into mx's storage, growing it
// as needed. Every cell is written — storage is reused, so cells the
// preselection excludes are zeroed explicitly — unless stop ends the fill
// after some row, leaving the later rows unwritten and uncounted. Under type
// equivalence the classes come from the workflows' cached summaries. The row
// and column maxima MatchBound needs are gathered as the cells are written.
//
//wfsimvet:hotpath
func (mx *Matrix) fill(a, b *workflow.Workflow, s Scheme, p Preselect, memo *SimMemo, stop RowStop) {
	ma, mb := a.Modules, b.Modules
	n, m := len(ma), len(mb)
	if cap(mx.flat) < n*m {
		mx.flat = make([]float64, n*m)
	}
	if cap(mx.W) < n {
		mx.W = make(matching.Weights, n)
	}
	mx.W = mx.W[:n]
	if cap(mx.colMax) < m {
		mx.colMax = make([]float64, m)
	}
	colMax := mx.colMax[:m]
	mx.colMax = colMax
	clear(colMax)
	mx.rowSum = 0
	mx.Stopped, mx.StopBound = false, 0
	te := p == TypeEquivalence
	var ca, cb []uint8
	if te {
		ca, cb = Classes(a).Of, Classes(b).Of
	}
	mx.Stats = PairStats{Total: n * m}
	for i, x := range ma {
		row := mx.flat[i*m : (i+1)*m : (i+1)*m]
		mx.W[i] = row
		var rowMax float64
		for j, y := range mb {
			if te && ca[i] != cb[j] || !te && !p.Allows(x, y) {
				row[j] = 0
				continue
			}
			mx.Stats.Compared++
			w := s.SimilarityMemo(x, y, memo)
			row[j] = w
			if w > rowMax {
				rowMax = w
			}
			if w > colMax[j] {
				colMax[j] = w
			}
		}
		mx.rowSum += rowMax
		if stop.Below != nil && i+1 < n {
			if bound, ok := mx.rowBound(n-1-i, stop.Cap); ok && stop.Below(bound) {
				mx.Stopped, mx.StopBound = true, bound
				return
			}
		}
	}
}

// rowBound returns RowBound once rest rows remain to be filled: the row
// maxima so far plus 1.0 for each remaining row, added one at a time in row
// order, or ok = false when that sum cannot fall below limit (an integer).
//
// The sum is an upper bound on the total weight, as float64 arithmetic
// computes it in ascending row order, of any matching of the finished matrix
// — the same argument as MatchBound's row maxima: a matching adds, for each
// row in turn, the matched cell or nothing; a finished row's term is at most
// its maximum and a remaining row's at most 1.0, the largest weight there is;
// so the bound adds a term at least as large at every step of the same
// order, and rounding is monotone. It also dominates the finished matrix's
// row-maxima sum, so a pair stopped here is one MatchBound would have put
// below the same floor.
//
// Adding the 1.0s one at a time matters: fl(fl(x+1)+1) can exceed fl(x+2) by
// an ulp, so a single addition of the remaining count is not a bound. What
// makes the loop cheap to skip is exact: every partial sum is at least the
// integer floor(rowSum) plus the 1.0s added so far (an integer below 2⁵³ is
// exact and rounding is monotone), so when floor(rowSum) + rest reaches limit
// the sum does too, and the bound caps at limit anyway.
//
//wfsimvet:hotpath
func (mx *Matrix) rowBound(rest int, limit float64) (float64, bool) {
	if math.Floor(mx.rowSum)+float64(rest) >= limit {
		return 0, false
	}
	bound := mx.rowSum
	for ; rest > 0; rest-- {
		bound++
	}
	return bound, bound < limit
}

// MatchBound returns an upper bound on the total weight, as float64
// arithmetic computes it, of any matching of the matrix whose pairs are
// summed in ascending row order (matching.MaxWeightTotal,
// matching.Greedy(...).TotalWeight()): the smaller of the sum of the row
// maxima and the sum of the column maxima.
//
// A matching uses a row at most once, so its total is the sum over the rows,
// in row order, of the matched cell or of nothing; the row-maxima sum adds a
// term at least as large at every step of the same order, and rounding is
// monotone, so it dominates in float64 exactly. The column-maxima sum
// dominates in the reals but is added in column order, not in the matching's
// order, so the two roundings are unrelated: each sum of k non-negative terms
// is within a factor (1 ± k·2⁻⁵³) of its real value, and the column sum is
// therefore scaled up by (n + m + 2)·2⁻⁵² — more than both errors and the
// scaling's own rounding together — before it is trusted.
//
//wfsimvet:hotpath
func (mx *Matrix) MatchBound() float64 {
	var colSum float64
	for _, c := range mx.colMax {
		colSum += c
	}
	colSum *= 1 + float64(len(mx.W)+len(mx.colMax)+2)*0x1p-52
	return min(mx.rowSum, colSum)
}
