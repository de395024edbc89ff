package measures

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/oracle"
	"repro/internal/symtab"
	"repro/internal/workflow"
)

func labelWorkflow(id string, labels ...string) *workflow.Workflow {
	w := workflow.New(id)
	for i, l := range labels {
		w.AddModule(&workflow.Module{
			ID:    fmt.Sprintf("m%d", i),
			Label: l,
			Type:  workflow.TypeWSDL,
		})
	}
	return w
}

func TestLabelSetValues(t *testing.T) {
	a := labelWorkflow("a", "fetch_sequence", "run_blast", "plot_hits")
	b := labelWorkflow("b", "Fetch Sequence", "run_blast", "align_reads", "trim_ends")

	// Canonicalization folds case and separators: 2 shared of 3 vs 4.
	if na, nb, shared := labelOverlap(a, b); na != 3 || nb != 4 || shared != 2 {
		t.Fatalf("labelOverlap = %d, %d, %d; want 3, 4, 2", na, nb, shared)
	}
	if got, want := LabelJaccard(a, b), 2.0/5.0; got != want {
		t.Errorf("LabelJaccard = %v, want %v", got, want)
	}
	if got, want := LabelContainment(a, b), 2.0/3.0; got != want {
		t.Errorf("LabelContainment = %v, want %v", got, want)
	}

	empty := labelWorkflow("e")
	if LabelJaccard(empty, empty) != 0 || LabelContainment(empty, a) != 0 {
		t.Error("empty label sets must score 0, not NaN")
	}
}

// TestLabelSetsMatchOracle: the label-set kernel (bitset prescreen, sorted
// merge) returns the oracle's score, bit for bit, on every pair — resolved by
// one table, by two, by none, or on one side only; oneTable resolves all but
// the first into a table of its own.
func TestLabelSetsMatchOracle(t *testing.T) {
	mk := func(tab *symtab.Table) []*workflow.Workflow {
		ws := []*workflow.Workflow{
			labelWorkflow("a", "fetch_sequence", "run_blast", "plot_hits"),
			labelWorkflow("b", "Fetch Sequence", "RUN_BLAST", "align_reads"),
			labelWorkflow("c", "segment_cells", "load_image"),
			labelWorkflow("d"),
			labelWorkflow("e", "fetch_sequence"),
		}
		for _, w := range ws {
			w.Resolve(tab)
		}
		return ws
	}
	plain, resolved, foreign := mk(nil), mk(symtab.New()), mk(symtab.New())
	for _, c := range []bool{false, true} {
		m, want := LabelSets{Containment: c}, oracle.LabelSets{Containment: c}
		for i := range plain {
			for j := range plain {
				w := want.Compare(plain[i], plain[j])
				for kind, pair := range map[string][2]*workflow.Workflow{
					"one table":  {resolved[i], resolved[j]},
					"two tables": {resolved[i], foreign[j]},
					"unresolved": {plain[i], plain[j]},
					"mixed":      {plain[i], resolved[j]},
				} {
					got, err := m.Compare(pair[0], pair[1])
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(w) {
						t.Errorf("%s(%s, %s), %s: %v, oracle %v", m.Name(), plain[i].ID, plain[j].ID, kind, got, w)
					}
				}
			}
		}
	}
}
