package workflow

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/symtab"
)

// chain builds a linear workflow m0 -> m1 -> ... -> m(n-1).
func chain(t *testing.T, n int) *Workflow {
	t.Helper()
	w := New("chain")
	for i := 0; i < n; i++ {
		w.AddModule(&Module{Label: "m", Type: TypeLocalWorker})
	}
	for i := 0; i+1 < n; i++ {
		if err := w.AddEdge(i, i+1); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", i, i+1, err)
		}
	}
	return w
}

// diamond builds a -> {b, c} -> d.
func diamond(t *testing.T) *Workflow {
	t.Helper()
	w := New("diamond")
	for _, l := range []string{"a", "b", "c", "d"} {
		w.AddModule(&Module{Label: l, Type: TypeWSDL})
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if err := w.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	return w
}

func TestAddEdgeValidation(t *testing.T) {
	w := New("w")
	w.AddModule(&Module{Label: "a"})
	w.AddModule(&Module{Label: "b"})
	if err := w.AddEdge(0, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := w.AddEdge(0, 1); err != nil {
		t.Fatalf("duplicate edge should be silently ignored, got %v", err)
	}
	if got := w.EdgeCount(); got != 1 {
		t.Fatalf("EdgeCount = %d, want 1 (duplicate ignored)", got)
	}
	if err := w.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := w.AddEdge(-1, 1); err == nil {
		t.Fatal("negative source accepted")
	}
	if err := w.AddEdge(0, 2); err == nil {
		t.Fatal("out-of-range target accepted")
	}
}

func TestSourcesSinks(t *testing.T) {
	w := diamond(t)
	if got := w.Sources(); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("Sources = %v, want [0]", got)
	}
	if got := w.Sinks(); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("Sinks = %v, want [3]", got)
	}
	// Isolated module is both source and sink.
	i := w.AddModule(&Module{Label: "iso"})
	if got := w.Sources(); !reflect.DeepEqual(got, []int{0, i}) {
		t.Errorf("Sources with isolated = %v", got)
	}
	if got := w.Sinks(); !reflect.DeepEqual(got, []int{3, i}) {
		t.Errorf("Sinks with isolated = %v", got)
	}
}

func TestTopoSortChain(t *testing.T) {
	w := chain(t, 5)
	order, err := w.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("order = %v", order)
	}
}

func TestTopoSortCycle(t *testing.T) {
	w := New("cyc")
	w.AddModule(&Module{Label: "a"})
	w.AddModule(&Module{Label: "b"})
	_ = w.AddEdge(0, 1)
	w.Edges = append(w.Edges, Edge{From: 1, To: 0}) // bypass AddEdge for the cycle
	w.invalidate()
	if _, err := w.TopoSort(); err != ErrCycle {
		t.Fatalf("TopoSort err = %v, want ErrCycle", err)
	}
	if err := w.Validate(); err == nil {
		t.Fatal("Validate accepted cyclic workflow")
	}
}

func TestValidate(t *testing.T) {
	w := diamond(t)
	for i, m := range w.Modules {
		m.ID = string(rune('a' + i))
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate valid workflow: %v", err)
	}
	w.Modules[1].ID = "a" // duplicate
	if err := w.Validate(); err == nil {
		t.Fatal("Validate accepted duplicate module IDs")
	}
}

func TestPathsDiamond(t *testing.T) {
	w := diamond(t)
	paths := w.Paths(0)
	want := []Path{{0, 1, 3}, {0, 2, 3}}
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("Paths = %v, want %v", paths, want)
	}
}

func TestPathsIsolated(t *testing.T) {
	w := New("iso")
	w.AddModule(&Module{Label: "only"})
	paths := w.Paths(0)
	if !reflect.DeepEqual(paths, []Path{{0}}) {
		t.Errorf("Paths = %v, want [[0]]", paths)
	}
}

func TestPathsCap(t *testing.T) {
	// Stacked diamonds: k diamonds give 2^k paths. Cap must bound output.
	w := New("stack")
	prev := w.AddModule(&Module{Label: "s"})
	for d := 0; d < 10; d++ {
		b1 := w.AddModule(&Module{Label: "b1"})
		b2 := w.AddModule(&Module{Label: "b2"})
		j := w.AddModule(&Module{Label: "j"})
		_ = w.AddEdge(prev, b1)
		_ = w.AddEdge(prev, b2)
		_ = w.AddEdge(b1, j)
		_ = w.AddEdge(b2, j)
		prev = j
	}
	if got := len(w.Paths(0)); got != 1024 {
		t.Errorf("uncapped (default) path count = %d, want 1024", got)
	}
	if got := len(w.Paths(100)); got != 100 {
		t.Errorf("capped path count = %d, want 100", got)
	}
}

func TestReachable(t *testing.T) {
	w := diamond(t)
	reach := w.Reachable()
	if !reach[0][3] || !reach[0][1] || !reach[0][2] {
		t.Errorf("reach[0] = %v, want {1,2,3}", reach[0])
	}
	if len(reach[3]) != 0 {
		t.Errorf("reach[3] = %v, want empty", reach[3])
	}
	if reach[1][2] || reach[2][1] {
		t.Error("branches must not reach each other")
	}
}

func TestTransitiveReduction(t *testing.T) {
	w := chain(t, 3)
	_ = w.AddEdge(0, 2) // redundant shortcut
	r := w.TransitiveReduction()
	if r.EdgeCount() != 2 {
		t.Fatalf("reduced edge count = %d, want 2 (%v)", r.EdgeCount(), r.Edges)
	}
	if r.HasEdge(0, 2) {
		t.Error("redundant edge 0->2 survived reduction")
	}
	// Reduction of the diamond is the diamond itself.
	d := diamond(t)
	if got := d.TransitiveReduction().EdgeCount(); got != 4 {
		t.Errorf("diamond reduction edge count = %d, want 4", got)
	}
}

func TestInducedSubgraphBridgesRemovedModules(t *testing.T) {
	// a -> x -> b with x removed must yield a -> b.
	w := New("w")
	a := w.AddModule(&Module{Label: "a", Type: TypeWSDL})
	x := w.AddModule(&Module{Label: "x", Type: TypeLocalWorker})
	b := w.AddModule(&Module{Label: "b", Type: TypeWSDL})
	_ = w.AddEdge(a, x)
	_ = w.AddEdge(x, b)
	sub := w.InducedSubgraph([]int{a, b})
	if sub.Size() != 2 {
		t.Fatalf("size = %d, want 2", sub.Size())
	}
	if !sub.HasEdge(0, 1) {
		t.Errorf("expected bridged edge a->b, edges=%v", sub.Edges)
	}
	if sub.Resolved() {
		t.Error("the subgraph of an unresolved workflow is resolved")
	}
	// The subgraph of a resolved workflow is resolved by the same table, so
	// the kernels compare it against that table's workflows.
	tab := symtab.New()
	w.Resolve(tab)
	sub = w.InducedSubgraph([]int{a, b})
	if !sub.ResolvedBy(tab) || sub.Modules[1].Syms != w.Modules[b].Syms || sub.Modules[1].CanonID != w.Modules[b].CanonID || len(sub.LabelSet()) != 2 {
		t.Errorf("subgraph of a resolved workflow: resolved by its table %v, symbols %v (want %v), label set %v",
			sub.ResolvedBy(tab), sub.Modules[1].Syms, w.Modules[b].Syms, sub.LabelSet())
	}
}

func TestInducedSubgraphNoPathThroughKept(t *testing.T) {
	// a -> k -> b, keeping all three: a->b must NOT appear (path runs
	// through a kept node), only a->k and k->b.
	w := New("w")
	a := w.AddModule(&Module{Label: "a"})
	k := w.AddModule(&Module{Label: "k"})
	b := w.AddModule(&Module{Label: "b"})
	_ = w.AddEdge(a, k)
	_ = w.AddEdge(k, b)
	sub := w.InducedSubgraph([]int{a, k, b})
	if sub.EdgeCount() != 2 {
		t.Fatalf("edges = %v, want exactly a->k, k->b", sub.Edges)
	}
	if sub.HasEdge(0, 2) {
		t.Error("spurious transitive edge a->b")
	}
}

func TestCloneIndependence(t *testing.T) {
	w := diamond(t)
	w.Annotations = Annotations{Title: "t", Tags: []string{"x"}}
	w.Modules[0].Params = map[string]string{"k": "v"}
	c := w.Clone()
	c.Modules[0].Label = "changed"
	c.Modules[0].Params["k"] = "changed"
	c.Annotations.Tags[0] = "changed"
	c.Edges[0].To = 99
	if w.Modules[0].Label != "a" || w.Modules[0].Params["k"] != "v" {
		t.Error("Clone shares module state")
	}
	if w.Annotations.Tags[0] != "x" {
		t.Error("Clone shares tag slice")
	}
	if w.Edges[0].To == 99 {
		t.Error("Clone shares edge slice")
	}
}

func TestInline(t *testing.T) {
	child := New("child")
	c0 := child.AddModule(&Module{ID: "c0", Label: "inner-src", Type: TypeWSDL})
	c1 := child.AddModule(&Module{ID: "c1", Label: "inner-snk", Type: TypeWSDL})
	_ = child.AddEdge(c0, c1)

	parent := New("parent")
	p0 := parent.AddModule(&Module{ID: "p0", Label: "pre", Type: TypeWSDL})
	df := parent.AddModule(&Module{ID: "df", Label: "nested", Type: TypeDataflow})
	p2 := parent.AddModule(&Module{ID: "p2", Label: "post", Type: TypeWSDL})
	_ = parent.AddEdge(p0, df)
	_ = parent.AddEdge(df, p2)

	resolve := func(m *Module) *Workflow {
		if m.ID == "df" {
			return child
		}
		return nil
	}
	flat := parent.Inline(resolve, 0)
	if flat.Size() != 4 {
		t.Fatalf("inlined size = %d, want 4", flat.Size())
	}
	if err := flat.Validate(); err != nil {
		t.Fatalf("inlined workflow invalid: %v", err)
	}
	// pre -> inner-src -> inner-snk -> post must be the single path.
	paths := flat.Paths(0)
	if len(paths) != 1 || len(paths[0]) != 4 {
		t.Fatalf("paths = %v, want one path of length 4", paths)
	}
	for _, m := range flat.Modules {
		if m.Type == TypeDataflow {
			t.Error("dataflow module survived inlining")
		}
	}
}

func TestInlineUnresolvable(t *testing.T) {
	w := New("w")
	w.AddModule(&Module{ID: "df", Label: "nested", Type: TypeDataflow})
	flat := w.Inline(func(*Module) *Workflow { return nil }, 0)
	if flat.Size() != 1 || flat.Modules[0].Type != TypeDataflow {
		t.Error("unresolvable dataflow must be kept as a plain module")
	}
}

func TestInlineRecursionGuard(t *testing.T) {
	// A workflow whose dataflow module resolves to itself must terminate.
	w := New("rec")
	w.AddModule(&Module{ID: "df", Label: "self", Type: TypeDataflow})
	resolve := func(m *Module) *Workflow { return w }
	flat := w.Inline(resolve, 3)
	if flat == nil {
		t.Fatal("Inline returned nil")
	}
}

// randomDAG builds a random DAG: edges only from lower to higher index, so
// acyclicity holds by construction.
func randomDAG(r *rand.Rand, n int) *Workflow {
	w := New("rand")
	for i := 0; i < n; i++ {
		w.AddModule(&Module{Label: "m", Type: TypeWSDL})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Intn(3) == 0 {
				_ = w.AddEdge(i, j)
			}
		}
	}
	return w
}

func TestPropertyTransitiveReductionPreservesReachability(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(szRaw%10) + 2
		w := randomDAG(r, n)
		red := w.TransitiveReduction()
		a, b := w.Reachable(), red.Reachable()
		for i := 0; i < n; i++ {
			if len(a[i]) != len(b[i]) {
				return false
			}
			for k := range a[i] {
				if !b[i][k] {
					return false
				}
			}
		}
		return red.EdgeCount() <= w.EdgeCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyInducedSubgraphAcyclicAndReachabilityConsistent(t *testing.T) {
	f := func(seed int64, szRaw, keepMask uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(szRaw%8) + 2
		w := randomDAG(r, n)
		var keep []int
		for i := 0; i < n; i++ {
			if keepMask&(1<<uint(i%8)) != 0 || r.Intn(2) == 0 {
				keep = append(keep, i)
			}
		}
		sub := w.InducedSubgraph(keep)
		if err := sub.Validate(); err != nil {
			return false
		}
		// Reachability between kept nodes must match the original's.
		origReach := w.Reachable()
		subReach := sub.Reachable()
		for si, oi := range keep {
			for sj, oj := range keep {
				if si == sj {
					continue
				}
				if origReach[oi][oj] != subReach[si][sj] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTopoSortRespectsEdges(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(szRaw%12) + 1
		w := randomDAG(r, n)
		order, err := w.TopoSort()
		if err != nil {
			return false
		}
		pos := make([]int, n)
		for p, v := range order {
			pos[v] = p
		}
		for _, e := range w.Edges {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestModuleHelpers(t *testing.T) {
	cases := []struct {
		typ                  string
		web, scripted, local bool
	}{
		{TypeWSDL, true, false, false},
		{TypeSoaplabWSDL, true, false, false},
		{TypeBeanshell, false, true, false},
		{TypeLocalWorker, false, false, true},
		{TypeStringConst, false, false, true},
		{TypeDataflow, false, false, false},
	}
	for _, c := range cases {
		m := &Module{Type: c.typ}
		if m.IsWebService() != c.web || m.IsScripted() != c.scripted || m.IsLocal() != c.local {
			t.Errorf("type %s: web=%v scripted=%v local=%v", c.typ, m.IsWebService(), m.IsScripted(), m.IsLocal())
		}
	}
}

func TestParamSignatureDeterministic(t *testing.T) {
	m := &Module{Params: map[string]string{"b": "2", "a": "1"}}
	if got := m.ParamSignature(); got != "a=1;b=2" {
		t.Errorf("ParamSignature = %q, want a=1;b=2", got)
	}
	if got := (&Module{}).ParamSignature(); got != "" {
		t.Errorf("empty ParamSignature = %q", got)
	}
}
