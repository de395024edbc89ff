package workflow

// Graph algorithms used by the topological similarity measures and the
// importance-projection preprocessing: source-to-sink path enumeration
// (Path Sets decomposition, Section 2.1.3 of the paper), reachability,
// transitive closure over removed nodes and transitive reduction
// (importance projection, Section 2.1.5).

// Path is a sequence of module indexes from a source to a sink.
type Path []int

// DefaultPathCap bounds the number of source-to-sink paths enumerated per
// workflow. Real Taverna DAGs are shallow, but pathological fan-out/fan-in
// chains have exponentially many paths; the cap keeps Path Sets comparison
// tractable, analogous to the paper's per-pair GED timeout.
const DefaultPathCap = 4096

// Paths enumerates the source-to-sink paths of the DAG, visiting at most cap
// paths (cap <= 0 uses DefaultPathCap). Isolated modules yield length-1
// paths: a module that is both source and sink is its own path.
func (w *Workflow) Paths(cap int) []Path {
	if cap <= 0 {
		cap = DefaultPathCap
	}
	a := w.buildAdjacency()
	var out []Path
	var stack []int
	var dfs func(v int) bool
	dfs = func(v int) bool {
		stack = append(stack, v)
		defer func() { stack = stack[:len(stack)-1] }()
		if len(a.succ[v]) == 0 {
			p := make(Path, len(stack))
			copy(p, stack)
			out = append(out, p)
			return len(out) < cap
		}
		for _, s := range a.succ[v] {
			if !dfs(s) {
				return false
			}
		}
		return true
	}
	for _, src := range w.Sources() {
		if !dfs(src) {
			break
		}
	}
	return out
}

// Reachable returns, for each module index, the set of module indexes
// reachable via one or more datalinks (the strict transitive closure).
func (w *Workflow) Reachable() []map[int]bool {
	a := w.buildAdjacency()
	n := len(w.Modules)
	reach := make([]map[int]bool, n)
	order, err := w.TopoSort()
	if err != nil {
		// A cyclic graph is invalid; callers should have validated.
		// Fall back to empty reachability rather than panicking.
		for i := range reach {
			reach[i] = map[int]bool{}
		}
		return reach
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		r := make(map[int]bool)
		for _, s := range a.succ[v] {
			r[s] = true
			for t := range reach[s] {
				r[t] = true
			}
		}
		reach[v] = r
	}
	return reach
}

// TransitiveReduction returns a copy of the workflow with every edge removed
// whose endpoints remain connected by a longer path; the result is the unique
// minimal DAG with the same reachability relation. Like any clone, the copy
// is unresolved.
func (w *Workflow) TransitiveReduction() *Workflow {
	c := w.Clone()
	if len(c.Edges) == 0 {
		return c
	}
	// An edge u->v is redundant iff some other successor s of u (s != v)
	// reaches v.
	reach := c.Reachable()
	adj := c.buildAdjacency()
	kept := c.Edges[:0]
	for _, e := range c.Edges {
		redundant := false
		for _, s := range adj.succ[e.From] {
			if s == e.To {
				continue
			}
			if reach[s][e.To] {
				redundant = true
				break
			}
		}
		if !redundant {
			kept = append(kept, e)
		}
	}
	c.Edges = kept
	c.invalidate()
	return c
}

// InducedSubgraph returns a new workflow containing only the modules whose
// indexes are in keep, with edges connecting kept modules that were connected
// by a path (possibly through removed modules) in the original workflow, per
// the importance-projection construction of Section 2.1.5. The result is
// transitively reduced. Annotations and workflow ID are preserved, and so is
// the resolution: the subgraph of a resolved workflow is resolved by the same
// symbol table, so it compares against that table's workflows.
func (w *Workflow) InducedSubgraph(keep []int) *Workflow {
	keepSet := make(map[int]bool, len(keep))
	for _, i := range keep {
		keepSet[i] = true
	}
	out := New(w.ID)
	out.Annotations = w.Clone().Annotations
	remap := make(map[int]int, len(keep))
	from := make([]int, 0, len(keep)) // the source module of each of out's
	// Preserve original module order for determinism.
	for i, m := range w.Modules {
		if keepSet[i] {
			remap[i] = out.AddModule(m.Clone())
			from = append(from, i)
		}
	}
	// Connect kept module u to kept module v iff v is reachable from u
	// through a path whose interior nodes are all removed.
	a := w.buildAdjacency()
	for u := range keepSet {
		// BFS through removed nodes only.
		visited := map[int]bool{u: true}
		frontier := []int{u}
		for len(frontier) > 0 {
			next := frontier[:0:0]
			for _, x := range frontier {
				for _, s := range a.succ[x] {
					if visited[s] {
						continue
					}
					visited[s] = true
					if keepSet[s] {
						_ = out.AddEdge(remap[u], remap[s]) //wfsimvet:ignore errpath contraction can fold an edge into a duplicate or self-loop; dropping it is the contraction semantics
						continue                            // do not traverse through kept nodes
					}
					next = append(next, s)
				}
			}
			frontier = next
		}
	}
	out = out.TransitiveReduction()
	if w.resolved {
		out.resolveFrom(w, from)
	}
	return out
}
