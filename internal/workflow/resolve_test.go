package workflow

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/symtab"
)

func TestCanonicalLabel(t *testing.T) {
	cases := map[string]string{
		"get_pathways_by_genes": "getpathwaysbygenes",
		"getPathwaysByGenes":    "getpathwaysbygenes",
		"Split String 2":        "splitstring",
		"split_string_2":        "splitstring",
		"":                      "",
		"42":                    "",
	}
	for in, want := range cases {
		if got := CanonicalLabel(in); got != want {
			t.Errorf("CanonicalLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

func resolveTestWorkflow(id string) *Workflow {
	w := New(id)
	w.AddModule(&Module{ID: "m0", Label: "Fetch_Sequence", Type: TypeWSDL})
	w.AddModule(&Module{ID: "m1", Label: "fetch sequence", Type: TypeWSDL}) // same canonical form
	w.AddModule(&Module{ID: "m2", Label: "run_blast", Type: TypeSoaplabWSDL,
		Description: "BLAST search", ServiceURI: "http://ebi/blast", ServiceName: "blastp", Authority: "ebi",
		Params: map[string]string{"db": "nr", "evalue": "10"}})
	w.AddModule(&Module{ID: "m3", Label: "", Type: TypeStringConst}) // empty label: not in the set
	return w
}

func TestResolveDerivedState(t *testing.T) {
	tab := symtab.New()
	w := resolveTestWorkflow("wf1")
	if w.Resolved() || w.SymID() != 0 || w.LabelSet() != nil || w.SymtabRef() != nil {
		t.Fatal("fresh workflow must be unresolved with zero derived state")
	}

	w.Resolve(tab)
	if !w.Resolved() || !w.ResolvedBy(tab) || w.SymtabRef() != tab {
		t.Fatal("Resolve did not mark the workflow resolved by tab")
	}
	if w.SymID() == 0 {
		t.Error("workflow ID symbol is zero after Resolve")
	}
	for _, m := range w.Modules {
		if m.CanonID != tab.Intern(CanonicalLabel(m.Label)) {
			t.Errorf("module %s: canonical ID does not round-trip through the table", m.ID)
		}
		for a := range m.Syms {
			if v := m.Value(Attr(a)); m.Syms[a] != tab.Intern(v) || tab.String(m.Syms[a]) != v {
				t.Errorf("module %s: attribute %d's ID does not round-trip through the table", m.ID, a)
			}
		}
	}
	// Label set: canonical, sorted, deduplicated, no zero ID. The two
	// fetch-sequence spellings collapse; the empty label contributes nothing.
	set := w.LabelSet()
	if len(set) != 2 {
		t.Fatalf("label set %v, want 2 entries", set)
	}
	for i, id := range set {
		if id == 0 {
			t.Error("label set contains the empty symbol")
		}
		if i > 0 && set[i-1] >= id {
			t.Errorf("label set not strictly sorted: %v", set)
		}
	}
	for _, m := range w.Modules {
		if m.CanonID != 0 && !slices.Contains(set, m.CanonID) {
			t.Errorf("module %s: canonical label %q is not in the label set", m.ID, CanonicalLabel(m.Label))
		}
	}
	if other := symtab.New(); w.ResolvedBy(other) {
		t.Error("ResolvedBy(true) for a table that never resolved the workflow")
	}

	// The revision travels with the symbols: a copy or a mutated workflow is
	// no longer the committed object it names.
	if w.Rev() != 0 {
		t.Errorf("unstamped workflow has revision %d", w.Rev())
	}
	w.StampRev(5)
	if c := w.Clone(); w.Rev() != 5 || c.Rev() != 0 || c.SymID() != 0 {
		t.Errorf("after StampRev(5): revision %d, clone revision %d symbol %d; want 5, 0, 0", w.Rev(), c.Rev(), c.SymID())
	}
	w.AddModule(&Module{Label: "late_step"})
	if w.Rev() != 0 || w.SymID() != 0 {
		t.Errorf("mutation kept revision %d / symbol %d", w.Rev(), w.SymID())
	}
}

func TestLabelOverlapKernel(t *testing.T) {
	tab := symtab.New()
	a := resolveTestWorkflow("a")
	b := New("b")
	b.AddModule(&Module{ID: "m0", Label: "FETCH_SEQUENCE", Type: TypeWSDL})
	b.AddModule(&Module{ID: "m1", Label: "plot_hits", Type: TypeWSDL})
	c := New("c")
	c.AddModule(&Module{ID: "m0", Label: "segment_cells", Type: TypeTool})

	for _, w := range []*Workflow{a, b, c} {
		w.Resolve(tab)
	}
	if got := LabelOverlap(a, b); got != 1 {
		t.Errorf("overlap(a,b) = %d, want 1", got)
	}
	if got := LabelOverlap(a, c); got != 0 {
		t.Errorf("overlap(a,c) = %d, want 0 (bitset prescreen)", got)
	}
}

func TestBitset256(t *testing.T) {
	var x, y Bitset256
	x.Set(3)
	x.Set(64 + 5)
	x.Set(255)
	y.Set(255)
	if x.Disjoint(&y) {
		t.Error("sets sharing bit 255 reported disjoint")
	}
	var z Bitset256
	z.Set(256 + 3) // aliases bit 3 (mod 256): upper bound, not exact
	if x.Disjoint(&z) {
		t.Error("aliased bit must count as potential overlap")
	}
	if !y.Disjoint(&z) {
		t.Error("bits 255 and 3 reported overlapping")
	}
}

func TestIntersectCount(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want int
	}{
		{nil, nil, 0},
		{[]uint32{1, 2, 3}, nil, 0},
		{[]uint32{1, 3, 5, 9}, []uint32{2, 3, 4, 9}, 2},
		{[]uint32{1, 2}, []uint32{1, 2}, 2},
		{[]uint32{7}, []uint32{8}, 0},
	}
	for _, c := range cases {
		if got := IntersectCount(c.a, c.b); got != c.want {
			t.Errorf("IntersectCount(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Rendering always goes through the retained string attributes: a
// zero-value module prints its (empty) strings, and resolving a module
// must not change how it renders — symbol IDs never leak into output.
func TestModuleStringNeverRendersSymbols(t *testing.T) {
	var zero Module
	if got := zero.String(); got != "()" {
		t.Errorf("zero-value Module.String() = %q, want %q", got, "()")
	}
	m := &Module{ID: "m0", Label: "fetch_sequence", Type: TypeWSDL}
	before := m.String()
	w := New("wf")
	w.AddModule(m)
	w.Resolve(symtab.New())
	if m.Syms[AttrLabel] == 0 {
		t.Fatal("module not resolved")
	}
	if got := m.String(); got != before {
		t.Errorf("String changed across Resolve: %q -> %q", before, got)
	}
	if s := fmt.Sprint(m); s != before {
		t.Errorf("fmt.Sprint renders %q, want %q", s, before)
	}
}
