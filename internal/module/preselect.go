package module

import (
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

// Allows reports whether the pair (a, b) is a candidate for comparison
// under the strategy.
func (p Preselect) Allows(a, b *workflow.Module) bool {
	switch p {
	case AllPairs:
		return true
	case TypeMatch:
		if a.TypeID != 0 && b.TypeID != 0 {
			return a.TypeID == b.TypeID
		}
		return a.Type == b.Type
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
	mx.fill(a.Modules, b.Modules, s, p, memo)
	return mx.W, mx.Stats
}

// Matrix is a module-similarity matrix over reusable storage: the rows of W
// are slices of one flat buffer. A whole-corpus scan computes one matrix per
// workflow pair and drops it after the mapping step, so scan kernels borrow
// a Matrix from a pool (AcquireMatrix) and hand it back (Release) instead of
// allocating rows per pair.
type Matrix struct {
	// W is the weight matrix; valid until Release.
	W matching.Weights
	// Stats counts the module pairs compared.
	Stats PairStats

	flat []float64
	cls  []TypeClass // type classes of the column modules, for te
}

var matrixPool = sync.Pool{New: func() any { return new(Matrix) }}

// AcquireMatrix computes the weight matrix of WeightMatrixMemo over pooled
// storage. The caller must Release it and must not retain W afterwards.
//
//wfsimvet:hotpath
func AcquireMatrix(a, b *workflow.Workflow, s Scheme, p Preselect, memo *SimMemo) *Matrix {
	mx := matrixPool.Get().(*Matrix)
	mx.fill(a.Modules, b.Modules, s, p, memo)
	return mx
}

// Release returns the matrix's storage to the pool.
func (mx *Matrix) Release() { matrixPool.Put(mx) }

// fill computes the matrix of ma × mb into mx's storage, growing it as
// needed. Every cell is written — storage is reused, so cells the
// preselection excludes are zeroed explicitly. Under type equivalence each
// module's class is computed once, not once per pair.
//
//wfsimvet:hotpath
func (mx *Matrix) fill(ma, mb []*workflow.Module, s Scheme, p Preselect, memo *SimMemo) {
	n, m := len(ma), len(mb)
	if cap(mx.flat) < n*m {
		mx.flat = make([]float64, n*m)
	}
	if cap(mx.W) < n {
		mx.W = make(matching.Weights, n)
	}
	mx.W = mx.W[:n]
	te := p == TypeEquivalence
	if te {
		if cap(mx.cls) < m {
			mx.cls = make([]TypeClass, m)
		}
		mx.cls = mx.cls[:m]
		for j, y := range mb {
			mx.cls[j] = ClassOf(y.Type)
		}
	}
	mx.Stats = PairStats{Total: n * m}
	for i, x := range ma {
		row := mx.flat[i*m : (i+1)*m : (i+1)*m]
		mx.W[i] = row
		var cx TypeClass
		if te {
			cx = ClassOf(x.Type)
		}
		for j, y := range mb {
			if te && cx != mx.cls[j] || !te && !p.Allows(x, y) {
				row[j] = 0
				continue
			}
			mx.Stats.Compared++
			row[j] = s.SimilarityMemo(x, y, memo)
		}
	}
}
