package measures

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/module"
	"repro/internal/repoknow"
	"repro/internal/symtab"
	"repro/internal/workflow"
)

// scanPair returns two resolved 10-module workflows whose modules all survive
// the type-based importance projection, so the specialised kernel compares a
// 10 × 10 matrix.
func scanPair() (a, b *workflow.Workflow) {
	r := rand.New(rand.NewSource(5))
	tab := symtab.New()
	build := func(id string) *workflow.Workflow {
		w := workflow.New(id)
		types := []string{workflow.TypeWSDL, workflow.TypeSoaplabWSDL, workflow.TypeBeanshell, workflow.TypeRShell}
		for i := 0; i < 10; i++ {
			w.AddModule(&workflow.Module{Label: randLabel(r), Type: types[r.Intn(len(types))]})
			if i > 0 {
				_ = w.AddEdge(i-1, i)
			}
		}
		w.Resolve(tab)
		return w
	}
	return build("a"), build("b")
}

// TestSpecialisedModuleSetsAllocatesNothing: the per-pair kernel of a
// whole-corpus scan — the specialised MS_ip_te_pll Compare on pre-projected
// workflows — runs on pooled scratch and a warm memo, so a comparison
// allocates nothing (it was 54 allocations on this pair while the weight
// matrix, the Hungarian arrays and the matching were built per call). The
// score is the unspecialised measure's, to the bit.
func TestSpecialisedModuleSetsAllocatesNothing(t *testing.T) {
	full := NewStructural(Config{
		Topology:  ModuleSets,
		Scheme:    module.PLL(),
		Preselect: module.TypeEquivalence,
		Project:   repoknow.NewProjector(repoknow.TypeScorer{}, 0.5).Project,
		Normalize: true,
	})
	project, inner := full.Specialise(module.NewSimMemo())
	a, b := scanPair()
	pa, pb := project(a), project(b)
	if pa.Size() != 10 || pb.Size() != 10 {
		t.Fatalf("projected sizes %d, %d; want 10, 10", pa.Size(), pb.Size())
	}
	want, err := full.Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inner.Compare(pa, pb) // also warms the memo and the pools
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) || got <= 0 || got >= 1 {
		t.Fatalf("specialised score %v, unspecialised %v; want equal bits strictly inside (0, 1)", got, want)
	}
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector (sync.Pool drops items)")
	}
	if n := testing.AllocsPerRun(200, func() { inner.Compare(pa, pb) }); n != 0 {
		t.Errorf("specialised MS_ip_te_pll Compare allocates %v times per warmed pair, want 0", n)
	}
	// Neither do the bounds: the class counts they read were built by the
	// first comparison and are kept on the workflows.
	bounded := inner.(Bounded)
	bound := bounded.UpperBounds(pa)
	if n := testing.AllocsPerRun(200, func() {
		bound(pb)
		bounded.CompareFloor(pa, pb, got)
		bounded.CompareFloor(pa, pb, 2)
	}); n != 0 {
		t.Errorf("UpperBounds' bound and CompareFloor allocate %v times per warmed pair, want 0", n)
	}
}
