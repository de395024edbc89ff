package measures

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ged"
	"repro/internal/matching"
	"repro/internal/module"
	"repro/internal/symtab"
	"repro/internal/workflow"
)

// Topology selects the topological comparison class of Section 2.1.3.
type Topology int

const (
	// ModuleSets compares workflows as sets of modules (structure
	// agnostic), after Silva et al., Santos et al., Stoyanovich et al.
	ModuleSets Topology = iota
	// PathSets decomposes workflows into source-to-sink paths and compares
	// the path sets (substructure based), after Krinke's maximum similar
	// subgraph notion.
	PathSets
	// GraphEdit compares the full DAG structures by graph edit distance,
	// after Xiang & Madey (SUBDUE).
	GraphEdit
)

// String returns the notation prefix (MS, PS, GE).
func (t Topology) String() string {
	switch t {
	case ModuleSets:
		return "MS"
	case PathSets:
		return "PS"
	case GraphEdit:
		return "GE"
	}
	return "??"
}

// MappingKind selects the module-mapping strategy of Section 2.1.2.
type MappingKind int

const (
	// MaxWeight computes the mapping of maximum overall weight (mw).
	MaxWeight MappingKind = iota
	// GreedyMapping selects pairs greedily by descending weight.
	GreedyMapping
)

// String implements fmt.Stringer.
func (m MappingKind) String() string {
	if m == GreedyMapping {
		return "greedy"
	}
	return "mw"
}

// Projector preprocesses a workflow before structural comparison; the
// importance projection of package repoknow satisfies this signature.
type Projector func(*workflow.Workflow) *workflow.Workflow

// Config fully describes one structural similarity algorithm configuration —
// one cell of the paper's 72-configuration sweep.
type Config struct {
	// Topology is the comparison class: MS, PS or GE.
	Topology Topology
	// Scheme is the module-comparison scheme (pw0, pw3, pll, plm, ...).
	Scheme module.Scheme
	// Preselect is the module-pair preselection strategy (ta, tm, te).
	Preselect module.Preselect
	// Project, when non-nil, is applied to both workflows before
	// comparison (the paper's ip). Nil means no preprocessing (np).
	Project Projector
	// Mapping is the module-mapping strategy (mw or greedy).
	Mapping MappingKind
	// Normalize enables the Section 2.1.4 normalization. The paper shows
	// disabling it significantly hurts GE ranking quality (Fig. 7).
	Normalize bool
	// PathCap bounds path enumeration for PS; 0 uses the default.
	PathCap int
	// GEDBeamWidth bounds the GED search frontier; 0 means exact.
	GEDBeamWidth int
	// GEDDeadline is the per-pair GED time budget; 0 means unlimited.
	// The paper used 5 minutes per pair and disregarded timeouts.
	GEDDeadline time.Duration
	// Counter, when non-nil, accumulates module-pair comparison counts.
	Counter *PairCounter
	// Memo, when non-nil, memoizes EditDistance comparisons of interned
	// attribute values across compares — installed by Specialise for a
	// scan, usually the engine's memo, which outlives it (see
	// module.SimMemo). It must belong to the symbol table that resolved the
	// compared workflows; a pair Compare resolves itself (oneTable) is
	// compared without it. Scores are bit-identical with or without it.
	Memo *module.SimMemo
}

// DefaultMappingLabelThreshold is the minimum mapped-pair similarity that
// identifies two modules for GED label preprocessing. A mapped pair below
// the threshold is treated as distinct nodes; without a threshold every
// maximum-weight-mapped pair — however dissimilar — would count as
// identical.
const DefaultMappingLabelThreshold = 0.5

// Structural is a configured structural similarity measure.
type Structural struct {
	cfg  Config
	name string // rendered once: a search asks for it several times
}

// NewStructural validates and wraps a configuration.
func NewStructural(cfg Config) *Structural {
	return &Structural{cfg: cfg, name: structuralName(cfg)}
}

// Config returns the measure's configuration.
func (s *Structural) Config() Config { return s.cfg }

// Name returns the paper's notation (see structuralName).
func (s *Structural) Name() string { return s.name }

// structuralName renders the paper's notation:
// TOPO_{ip|np}_{ta|tm|te}_{scheme}, with non-default mapping or
// normalization noted as suffixes.
func structuralName(cfg Config) string {
	proj := "np"
	if cfg.Project != nil {
		proj = "ip"
	}
	name := fmt.Sprintf("%s_%s_%s_%s", cfg.Topology, proj, cfg.Preselect, cfg.Scheme.Name)
	if cfg.Mapping == GreedyMapping {
		name += "_greedy"
	}
	if !cfg.Normalize {
		name += "_nonorm"
	}
	return name
}

// Compare computes the configured structural similarity of a and b.
func (s *Structural) Compare(a, b *workflow.Workflow) (float64, error) {
	s, a, b = s.oneTable(s.projected(a, b))
	switch s.cfg.Topology {
	case ModuleSets:
		v, _ := s.moduleSets(a, b, math.Inf(-1))
		return v, nil
	case PathSets:
		return s.pathSets(a, b), nil
	case GraphEdit:
		return s.graphEdit(a, b)
	}
	return 0, fmt.Errorf("measures: unknown topology %d", s.cfg.Topology)
}

// boundedModuleSets is a Module Sets measure together with its exact score
// bound (see moduleSets). Path Sets and Graph Edit have no bound, so a
// Structural on its own does not implement Bounded; WithBound adds it where
// it exists.
type boundedModuleSets struct{ *Structural }

// WithBound returns s in the form to hand to a scan: implementing Bounded
// when the topology has a bound, s itself when it has none.
func (s *Structural) WithBound() Measure {
	if s.cfg.Topology != ModuleSets {
		return s
	}
	return boundedModuleSets{s}
}

// UpperBounds implements Bounded: the class-count bound of moduleSets, with
// a's projection, class counts and size read once.
//
//wfsimvet:hotpath
func (s boundedModuleSets) UpperBounds(a *workflow.Workflow) func(b *workflow.Workflow) float64 {
	project := s.cfg.Project
	if project != nil {
		a = project(a)
	}
	classes, size := module.Classes(a), float64(a.Size())
	return func(b *workflow.Workflow) float64 {
		if project != nil {
			b = project(b)
		}
		if size == 0 || b.Size() == 0 {
			return 0
		}
		return s.msScore(float64(s.cfg.Preselect.MatchCap(classes, module.Classes(b))), size, float64(b.Size()))
	}
}

// CompareFloor implements Bounded.
//
//wfsimvet:hotpath
func (s boundedModuleSets) CompareFloor(a, b *workflow.Workflow, floor float64) (float64, bool, error) {
	st, a, b := s.oneTable(s.projected(a, b))
	v, below := st.moduleSets(a, b, floor)
	return v, below, nil
}

// oneTable is the rule below the Measure interface: a kernel only ever sees
// workflows one symbol table resolved. It returns a and b when one table
// resolved both — every pair of a scan, whose query the engine resolves into
// the corpus's table, and their projections, which the source's table
// resolves — and otherwise clones of both that a fresh table resolves: an
// unresolved workflow has no symbols to compare, and two tables assign the
// same IDs to different strings. Which table resolved a pair does not change
// its score. Measures apply it last, to the very pair a kernel compares.
func oneTable(a, b *workflow.Workflow) (*workflow.Workflow, *workflow.Workflow) {
	if t := a.SymtabRef(); t != nil && b.ResolvedBy(t) {
		return a, b
	}
	t := symtab.New()
	a, b = a.Clone(), b.Clone()
	a.ResolveModules(t)
	b.ResolveModules(t)
	return a, b
}

// oneTable applies the package's oneTable to a pair about to be compared
// under s. A memo belongs to one symbol table, so a pair resolved into a
// fresh one is compared under a copy of s without it.
func (s *Structural) oneTable(a, b *workflow.Workflow) (*Structural, *workflow.Workflow, *workflow.Workflow) {
	ra, rb := oneTable(a, b)
	if ra != a && s.cfg.Memo != nil {
		cfg := s.cfg
		cfg.Memo = nil
		s = &Structural{cfg: cfg, name: s.name}
	}
	return s, ra, rb
}

// projected applies the configured preprocessing (ip), if any, to both sides.
func (s *Structural) projected(a, b *workflow.Workflow) (*workflow.Workflow, *workflow.Workflow) {
	if s.cfg.Project == nil {
		return a, b
	}
	return s.cfg.Project(a), s.cfg.Project(b)
}

func (s *Structural) match(w matching.Weights) matching.Matching {
	if s.cfg.Mapping == GreedyMapping {
		return matching.Greedy(w)
	}
	return matching.MaxWeight(w)
}

// matchTotal is match(w).TotalWeight(), to the bit, without materialising
// the maximum-weight matching.
func (s *Structural) matchTotal(w matching.Weights) float64 {
	if s.cfg.Mapping == GreedyMapping {
		return matching.Greedy(w).TotalWeight()
	}
	return matching.MaxWeightTotal(w)
}

// moduleSets implements simMS: the additive similarity score of the mapped
// module pairs, normalized by the similarity-Jaccard
// nnsim / (|V1| + |V2| - nnsim). With the maximum-weight mapping and a warm
// memo a comparison allocates nothing: the weight matrix and the Hungarian
// arrays are pooled scratch.
//
// It stops early, reporting below, as soon as the score provably falls under
// floor (-Inf: never). The score is msScore(nnsim), which is monotone in
// nnsim — in float64, not only in the reals: the denominator is one rounded
// subtraction from an exact integer, the quotient one rounded division, and
// rounding preserves order — so an upper bound on nnsim gives one on the
// score. Three such bounds exist before the mapping is computed, each at
// least the nnsim the mapping step would return in float64:
//
//   - before any matrix work, matchCap: nnsim adds at most that many
//     weights, none above 1 (a weight is a quotient sum/wsum whose numerator
//     adds, attribute by attribute, at most what the denominator adds), and
//     a float64 sum of k terms <= 1 is at most the exactly representable k;
//   - after each row of the matrix, module.Matrix's row bound (the row
//     maxima so far plus 1.0 per remaining row), which stops the fill there
//     — only under a finite floor, so Compare fills every cell;
//   - once the matrix is filled, module.Matrix.MatchBound (row and column
//     maxima).
//
// The two matrix bounds carry their float64 arguments beside each other in
// package module. Each is capped by matchCap.
//
//wfsimvet:hotpath
func (s *Structural) moduleSets(a, b *workflow.Workflow, floor float64) (score float64, below bool) {
	if a.Size() == 0 || b.Size() == 0 {
		return 0, 0 < floor
	}
	sizeA, sizeB := float64(a.Size()), float64(b.Size())
	limit := float64(s.matchCap(a, b))
	if bound := s.msScore(limit, sizeA, sizeB); bound < floor {
		return bound, true
	}
	var stop module.RowStop
	if floor > math.Inf(-1) {
		stop = module.RowStop{Cap: limit, Below: func(nnsim float64) bool { return s.msScore(nnsim, sizeA, sizeB) < floor }}
	}
	mx := module.AcquireMatrix(a, b, s.cfg.Scheme, s.cfg.Preselect, s.cfg.Memo, stop)
	s.cfg.Counter.Add(mx.Stats.Total, mx.Stats.Compared)
	if mx.Stopped {
		bound := s.msScore(mx.StopBound, sizeA, sizeB)
		mx.Release()
		return bound, true
	}
	if bound := s.msScore(min(limit, mx.MatchBound()), sizeA, sizeB); bound < floor {
		mx.Release()
		return bound, true
	}
	nnsim := s.matchTotal(mx.W)
	mx.Release()
	return s.msScore(nnsim, sizeA, sizeB), false
}

// matchCap bounds the number of module pairs a mapping between a and b can
// hold under the configured preselection.
func (s *Structural) matchCap(a, b *workflow.Workflow) int {
	return s.cfg.Preselect.MatchCap(module.Classes(a), module.Classes(b))
}

// msScore turns a Module Sets nnsim between workflows of sizeA and sizeB
// modules into the configured score.
func (s *Structural) msScore(nnsim, sizeA, sizeB float64) float64 {
	if !s.cfg.Normalize {
		return nnsim
	}
	return jaccardNorm(nnsim, sizeA, sizeB)
}

// pathSets implements simPS: workflows are decomposed into source-to-sink
// paths; each pair of paths is aligned by maximum-weight non-crossing
// matching (mwnc) respecting module order; path-pair similarities are then
// combined by a maximum-weight matching over the path sets.
//
// Path-pair scores are themselves Jaccard-normalized into [0,1] so that the
// outer normalization nnsim / (|PS1| + |PS2| - nnsim) attains 1 exactly for
// identical workflows (see DESIGN.md).
//
//wfsimvet:hotpath
func (s *Structural) pathSets(a, b *workflow.Workflow) float64 {
	pa := a.Paths(s.cfg.PathCap)
	pb := b.Paths(s.cfg.PathCap)
	if len(pa) == 0 || len(pb) == 0 {
		return 0
	}
	// Module similarities are computed once for the workflow pair; path
	// alignment then indexes into the shared matrix. Modules occur on many
	// paths, so recomputing per path pair would be quadratically wasteful.
	mx := module.AcquireMatrix(a, b, s.cfg.Scheme, s.cfg.Preselect, s.cfg.Memo, module.RowStop{})
	defer mx.Release()
	s.cfg.Counter.Add(mx.Stats.Total, mx.Stats.Compared)
	full := mx.W

	pathWeights := make(matching.Weights, len(pa))
	var buf matching.Weights // reused per path pair
	for i, p := range pa {
		pathWeights[i] = make([]float64, len(pb))
		for j, q := range pb {
			w := sliceWeights(&buf, full, p, q)
			nn := matching.MaxWeightNonCrossing(w).TotalWeight()
			pathWeights[i][j] = jaccardNorm(nn, float64(len(p)), float64(len(q)))
		}
	}
	nnsim := s.matchTotal(pathWeights)
	if !s.cfg.Normalize {
		return nnsim
	}
	return jaccardNorm(nnsim, float64(len(pa)), float64(len(pb)))
}

// sliceWeights materialises the sub-matrix of full for the module sequences
// along paths p and q, reusing buf's backing storage.
func sliceWeights(buf *matching.Weights, full matching.Weights, p, q workflow.Path) matching.Weights {
	w := *buf
	if cap(w) < len(p) {
		w = make(matching.Weights, len(p))
	}
	w = w[:len(p)]
	for i, pi := range p {
		if cap(w[i]) < len(q) {
			w[i] = make([]float64, len(q))
		}
		w[i] = w[i][:len(q)]
		for j, qj := range q {
			w[i][j] = full[pi][qj]
		}
	}
	*buf = w
	return w
}

// graphEdit implements simGE: the module mapping derived from maximum-weight
// matching assigns shared node labels to mapped pairs (the paper's SUBDUE
// input conversion); the labeled DAGs are then compared by uniform-cost
// graph edit distance. Normalized similarity is
//
//	1 - cost / (max(|V1|,|V2|) + |E1| + |E2|);
//
// unnormalized similarity is -cost.
func (s *Structural) graphEdit(a, b *workflow.Workflow) (float64, error) {
	// Canonicalize the orientation: the maximum-weight module mapping can
	// have multiple optima, and which one the matcher returns depends on
	// argument order; fixing the order keeps the measure symmetric.
	a, b = workflow.OrderPair(a, b)
	g1, g2 := s.labeledGraphs(a, b)
	cost, err := ged.Distance(g1, g2, ged.Options{
		BeamWidth: s.cfg.GEDBeamWidth,
		Deadline:  s.cfg.GEDDeadline,
	})
	if err != nil {
		return 0, fmt.Errorf("GE on (%s, %s): %w", a.ID, b.ID, err)
	}
	if !s.cfg.Normalize {
		return -cost, nil
	}
	max := ged.MaxCost(g1, g2)
	if max == 0 {
		return 1, nil // two empty graphs are identical
	}
	return 1 - cost/max, nil
}

// labeledGraphs converts the two workflows into labeled GED graphs: modules
// mapped onto each other (with similarity >= DefaultMappingLabelThreshold)
// share a label; all other modules receive unique labels.
func (s *Structural) labeledGraphs(a, b *workflow.Workflow) (*ged.Graph, *ged.Graph) {
	w, st := module.WeightMatrixMemo(a, b, s.cfg.Scheme, s.cfg.Preselect, s.cfg.Memo)
	s.cfg.Counter.Add(st.Total, st.Compared)
	mapping := s.match(w)

	g1 := ged.NewGraph(a.Size())
	g2 := ged.NewGraph(b.Size())
	// Unique labels by default: positive for g1, negative for g2.
	for i := range g1.Labels {
		g1.Labels[i] = i + 1
	}
	for j := range g2.Labels {
		g2.Labels[j] = -(j + 1)
	}
	shared := a.Size() + b.Size() + 1
	for _, p := range mapping {
		if p.Weight >= DefaultMappingLabelThreshold {
			g1.Labels[p.I] = shared
			g2.Labels[p.J] = shared
			shared++
		}
	}
	for _, e := range a.Edges {
		g1.AddEdge(e.From, e.To)
	}
	for _, e := range b.Edges {
		g2.AddEdge(e.From, e.To)
	}
	return g1, g2
}

// jaccardNorm is the paper's modified Jaccard index for similarity-based
// overlaps: nnsim / (sizeA + sizeB - nnsim). It maps identical inputs
// (nnsim == sizeA == sizeB) to 1 and disjoint ones (nnsim == 0) to 0.
func jaccardNorm(nnsim, sizeA, sizeB float64) float64 {
	den := sizeA + sizeB - nnsim
	if den <= 0 {
		return 0
	}
	v := nnsim / den
	if v > 1 {
		return 1
	}
	return v
}
