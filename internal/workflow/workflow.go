package workflow

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/symtab"
)

// Edge is a datalink from one module to another, identified by their indexes
// in the owning workflow's Modules slice. Data flows From -> To.
type Edge struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// Annotations is the repository metadata recorded alongside a workflow when
// it is uploaded: a title, a free-form description, keyword tags and the
// uploading author. Annotation-based similarity measures (Bag of Words,
// Bag of Tags) operate exclusively on this data.
type Annotations struct {
	Title       string   `json:"title"`
	Description string   `json:"description,omitempty"`
	Tags        []string `json:"tags,omitempty"`
	Author      string   `json:"author,omitempty"`
}

// Workflow is a scientific workflow: a DAG of modules joined by datalinks,
// together with its repository annotations.
//
// Modules are stored in a slice; edges refer to modules by index. The zero
// value is an empty workflow ready for use via AddModule/AddEdge.
type Workflow struct {
	// ID uniquely identifies the workflow within a repository.
	ID string `json:"id"`
	// Annotations holds the author-provided repository metadata.
	Annotations Annotations `json:"annotations"`
	// Modules are the data-processing steps, in insertion order.
	Modules []*Module `json:"modules"`
	// Edges are the datalinks between modules, by module index.
	Edges []Edge `json:"edges"`

	// adj is the adjacency cache, built lazily and invalidated by
	// mutation. It is an atomic pointer because parallel scans share
	// workflows across scoring goroutines (the query of a search, both
	// sides of a pair scan): concurrent first readers each build the
	// same adjacency from the immutable Edges and store it idempotently.
	// Mutating a workflow while another goroutine reads it remains the
	// caller's bug — the ownership rules already forbid it.
	adj atomic.Pointer[adjacency]

	// proj caches the workflow's last importance projection (see
	// Projection): kept on the workflow, the cached copy lives exactly as
	// long as the workflow it was derived from. Atomic for the same reason
	// as adj.
	proj atomic.Pointer[projection]

	// classes caches the workflow's module classes (see ModuleClasses), built
	// on the first comparison that needs them — never at ingest. Atomic for
	// the same reason as adj.
	classes atomic.Pointer[ModuleClasses]

	// interned hot representation, resolved at ingest by Resolve and
	// invalidated by mutation. symID is the workflow ID's symbol;
	// labelSet is the sorted, deduplicated set of canonical module-label
	// symbol IDs; labelBits is its fixed-width bitset summary. rev is the
	// repository revision (see Rev); like the symbols it is process-local,
	// never serialised, and not carried over by Clone.
	symID     uint32
	resolved  bool // shares symID's word: the struct stays in its size class
	rev       uint64
	labelSet  []uint32
	labelBits Bitset256
	tab       *symtab.Table
}

// New returns an empty workflow with the given repository ID.
func New(id string) *Workflow {
	return &Workflow{ID: id}
}

// ErrCycle is returned by Validate and TopoSort when the datalink graph
// contains a directed cycle and therefore is not a DAG.
var ErrCycle = errors.New("workflow: datalink graph contains a cycle")

// AddModule appends m and returns its index.
func (w *Workflow) AddModule(m *Module) int {
	w.Modules = append(w.Modules, m)
	w.invalidate()
	return len(w.Modules) - 1
}

// AddEdge adds a datalink from module index from to module index to.
// It returns an error if either endpoint is out of range or the edge is a
// self-loop. Duplicate edges are ignored.
func (w *Workflow) AddEdge(from, to int) error {
	if from < 0 || from >= len(w.Modules) {
		return fmt.Errorf("workflow %s: edge source %d out of range [0,%d)", w.ID, from, len(w.Modules))
	}
	if to < 0 || to >= len(w.Modules) {
		return fmt.Errorf("workflow %s: edge target %d out of range [0,%d)", w.ID, to, len(w.Modules))
	}
	if from == to {
		return fmt.Errorf("workflow %s: self-loop on module %d", w.ID, from)
	}
	for _, e := range w.Edges {
		if e.From == from && e.To == to {
			return nil
		}
	}
	w.Edges = append(w.Edges, Edge{From: from, To: to})
	w.invalidate()
	return nil
}

func (w *Workflow) invalidate() {
	w.adj.Store(nil)
	w.proj.Store(nil)
	w.classes.Store(nil)
	w.symID = 0
	w.rev = 0
	w.labelSet = nil
	w.labelBits = Bitset256{}
	w.resolved = false
	w.tab = nil
}

// ProjectorID names one projector in workflows' projection slots. Allocate
// one per projector (new(ProjectorID)); identity is the pointer.
type ProjectorID struct{ _ byte } // not zero-sized: distinct allocations must have distinct addresses

// projection is the content of a workflow's projection slot.
type projection struct {
	by  *ProjectorID
	out *Workflow // nil: the projection is the workflow itself
}

// Projection returns the projection of w that projector by last stored with
// SetProjection, if the slot still holds it. The slot keeps one projection —
// the latest, whichever projector wrote it — and is cleared by mutation, so
// a miss only means "compute it again".
func (w *Workflow) Projection(by *ProjectorID) (*Workflow, bool) {
	c := w.proj.Load()
	if c == nil || c.by != by {
		return nil, false
	}
	if c.out == nil {
		return w, true
	}
	return c.out, true
}

// SetProjection stores out as w's projection under projector by. out must
// not reference w (an identity projection passes w itself and is stored as
// a marker), so the slot never keeps anything alive but the projected copy.
func (w *Workflow) SetProjection(by *ProjectorID, out *Workflow) {
	if out == w {
		out = nil
	}
	w.proj.Store(&projection{by: by, out: out})
}

// MaxModuleClasses bounds the number of distinct classes a ModuleClasses
// summary counts.
const MaxModuleClasses = 8

// ModuleClasses summarises a workflow's modules by preselection class: Of[i]
// is the class of Modules[i], Count[c] the number of modules of class c.
// Package module owns the mapping from module type to class
// (module.ClassOf) and builds the summary (module.Classes); the workflow
// only keeps it, so it is computed once per workflow instead of once per
// compared pair and dies with the workflow. It is immutable once stored.
type ModuleClasses struct {
	Of    []uint8
	Count [MaxModuleClasses]int32
}

// ModuleClasses returns the summary last stored with SetModuleClasses, or nil
// when there is none — never stored, cleared by mutation, or stored for a
// different number of modules (Modules appended to directly).
func (w *Workflow) ModuleClasses() *ModuleClasses {
	c := w.classes.Load()
	if c == nil || len(c.Of) != len(w.Modules) {
		return nil
	}
	return c
}

// SetModuleClasses stores c as w's class summary. Concurrent first readers
// build identical summaries; the last store wins.
func (w *Workflow) SetModuleClasses(c *ModuleClasses) { w.classes.Store(c) }

// Size returns the number of modules, |V|.
func (w *Workflow) Size() int { return len(w.Modules) }

// EdgeCount returns the number of datalinks, |E|.
func (w *Workflow) EdgeCount() int { return len(w.Edges) }

// adjacency is the immutable successor/predecessor cache of one workflow.
type adjacency struct {
	succ [][]int
	pred [][]int
}

func (w *Workflow) buildAdjacency() *adjacency {
	if a := w.adj.Load(); a != nil {
		return a
	}
	n := len(w.Modules)
	a := &adjacency{succ: make([][]int, n), pred: make([][]int, n)}
	for _, e := range w.Edges {
		a.succ[e.From] = append(a.succ[e.From], e.To)
		a.pred[e.To] = append(a.pred[e.To], e.From)
	}
	// Concurrent first readers build identical adjacencies from the same
	// Edges; last store wins and every reader holds a complete copy.
	w.adj.Store(a)
	return a
}

// Sources returns the indexes of modules without inbound datalinks.
func (w *Workflow) Sources() []int {
	a := w.buildAdjacency()
	var src []int
	for i := range w.Modules {
		if len(a.pred[i]) == 0 {
			src = append(src, i)
		}
	}
	return src
}

// Sinks returns the indexes of modules without outbound datalinks.
func (w *Workflow) Sinks() []int {
	a := w.buildAdjacency()
	var snk []int
	for i := range w.Modules {
		if len(a.succ[i]) == 0 {
			snk = append(snk, i)
		}
	}
	return snk
}

// TopoSort returns the module indexes in a topological order of the datalink
// graph, or ErrCycle if the graph is not acyclic.
func (w *Workflow) TopoSort() ([]int, error) {
	a := w.buildAdjacency()
	n := len(w.Modules)
	indeg := make([]int, n)
	for _, e := range w.Edges {
		indeg[e.To]++
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, s := range a.succ[v] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// Validate checks structural integrity: edge endpoints in range, no
// self-loops, no duplicate edges, acyclicity, and module IDs unique.
func (w *Workflow) Validate() error {
	n := len(w.Modules)
	seen := make(map[Edge]bool, len(w.Edges))
	for _, e := range w.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("workflow %s: edge %v out of range", w.ID, e)
		}
		if e.From == e.To {
			return fmt.Errorf("workflow %s: self-loop %v", w.ID, e)
		}
		if seen[e] {
			return fmt.Errorf("workflow %s: duplicate edge %v", w.ID, e)
		}
		seen[e] = true
	}
	ids := make(map[string]bool, n)
	for _, m := range w.Modules {
		if m == nil {
			return fmt.Errorf("workflow %s: nil module", w.ID)
		}
		if m.ID != "" {
			if ids[m.ID] {
				return fmt.Errorf("workflow %s: duplicate module id %q", w.ID, m.ID)
			}
			ids[m.ID] = true
		}
	}
	if _, err := w.TopoSort(); err != nil {
		return err
	}
	return nil
}

// Clone returns a deep copy of the workflow.
func (w *Workflow) Clone() *Workflow {
	c := &Workflow{
		ID: w.ID,
		Annotations: Annotations{
			Title:       w.Annotations.Title,
			Description: w.Annotations.Description,
			Author:      w.Annotations.Author,
		},
	}
	if w.Annotations.Tags != nil {
		c.Annotations.Tags = append([]string(nil), w.Annotations.Tags...)
	}
	c.Modules = make([]*Module, len(w.Modules))
	for i, m := range w.Modules {
		c.Modules[i] = m.Clone()
	}
	c.Edges = append([]Edge(nil), w.Edges...)
	return c
}

// HasEdge reports whether a datalink from -> to exists.
func (w *Workflow) HasEdge(from, to int) bool {
	for _, e := range w.Edges {
		if e.From == from && e.To == to {
			return true
		}
	}
	return false
}

// String implements fmt.Stringer.
func (w *Workflow) String() string {
	return fmt.Sprintf("workflow %s (%d modules, %d edges)", w.ID, len(w.Modules), len(w.Edges))
}
