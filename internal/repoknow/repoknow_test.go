package repoknow

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workflow"
)

func wfWithModules(id string, types ...string) *workflow.Workflow {
	w := workflow.New(id)
	for i, typ := range types {
		w.AddModule(&workflow.Module{Label: "m" + string(rune('a'+i)), Type: typ})
		if i > 0 {
			_ = w.AddEdge(i-1, i)
		}
	}
	return w
}

func TestCollectUsage(t *testing.T) {
	wfs := []*workflow.Workflow{
		wfWithModules("a", workflow.TypeWSDL, workflow.TypeLocalWorker),
		wfWithModules("b", workflow.TypeWSDL),
	}
	s := CollectUsage(wfs)
	if s.Workflows != 2 || s.Modules != 3 {
		t.Errorf("Workflows=%d Modules=%d, want 2, 3", s.Workflows, s.Modules)
	}
	if s.DocFreq["ma"] != 2 || s.DocFreq["mb"] != 1 {
		t.Errorf("DocFreq = %v, want ma 2 (case-folded), mb 1", s.DocFreq)
	}
}

func TestTypeScorer(t *testing.T) {
	s := TypeScorer{}
	if s.Score(&workflow.Module{Type: workflow.TypeLocalWorker}) != 0 {
		t.Error("local worker should score 0")
	}
	if s.Score(&workflow.Module{Type: workflow.TypeStringConst}) != 0 {
		t.Error("string constant should score 0")
	}
	if s.Score(&workflow.Module{Type: workflow.TypeWSDL}) != 1 {
		t.Error("web service should score 1")
	}
	if s.Score(&workflow.Module{Type: workflow.TypeBeanshell}) != 1 {
		t.Error("script should score 1")
	}
}

func TestFrequencyScorer(t *testing.T) {
	wfs := []*workflow.Workflow{}
	for i := 0; i < 10; i++ {
		w := workflow.New("w")
		w.AddModule(&workflow.Module{Label: "split_string", Type: workflow.TypeLocalWorker})
		if i == 0 {
			w.AddModule(&workflow.Module{Label: "rare_service", Type: workflow.TypeWSDL})
		}
		wfs = append(wfs, w)
	}
	f := NewFrequencyScorer(CollectUsage(wfs))
	common := f.Score(&workflow.Module{Label: "split_string"})
	rare := f.Score(&workflow.Module{Label: "rare_service"})
	if common != 0 {
		t.Errorf("most frequent label score = %v, want 0", common)
	}
	if rare <= common {
		t.Errorf("rare %v should outscore common %v", rare, common)
	}
	unseen := f.Score(&workflow.Module{Label: "never_seen"})
	if unseen != 1 {
		t.Errorf("unseen label score = %v, want 1", unseen)
	}
}

func TestProjectorRemovesTrivialAndBridges(t *testing.T) {
	// ws -> local -> script: projection must drop the local module and
	// bridge ws -> script.
	w := wfWithModules("w", workflow.TypeWSDL, workflow.TypeLocalWorker, workflow.TypeBeanshell)
	p := NewProjector(TypeScorer{}, 0.5)
	out := p.Project(w)
	if out.Size() != 2 {
		t.Fatalf("projected size = %d, want 2", out.Size())
	}
	if !out.HasEdge(0, 1) {
		t.Errorf("bridge edge missing: %v", out.Edges)
	}
}

func TestProjectorAllTrivialKeepsOriginal(t *testing.T) {
	w := wfWithModules("w", workflow.TypeLocalWorker, workflow.TypeStringConst)
	p := NewProjector(TypeScorer{}, 0.5)
	out := p.Project(w)
	if out != w {
		t.Error("projection to empty set must return the original workflow")
	}
}

func TestProjectorCaches(t *testing.T) {
	w := wfWithModules("w", workflow.TypeWSDL, workflow.TypeLocalWorker, workflow.TypeBeanshell)
	p := NewProjector(TypeScorer{}, 0.5)
	a, b := p.Project(w), p.Project(w)
	if a != b {
		t.Error("repeated projection must return the cached value")
	}
}

// TestProjectorDoesNotRetainWorkflows is the leak the pointer-keyed cache
// had: a projector that outlives the workflows it projected — the registry's
// default one lives as long as the process — must not keep them, or their
// projections, reachable. Both projection shapes are covered: a proper
// subgraph and the identity (nothing dropped).
func TestProjectorDoesNotRetainWorkflows(t *testing.T) {
	p := NewProjector(TypeScorer{}, 0.5)
	const n = 64
	var collected atomic.Int64
	for i := 0; i < n; i++ {
		types := []string{workflow.TypeWSDL, workflow.TypeLocalWorker, workflow.TypeBeanshell}
		if i%2 == 1 {
			types = []string{workflow.TypeWSDL, workflow.TypeBeanshell} // identity projection
		}
		w := wfWithModules("w", types...)
		if out := p.Project(w); (out == w) != (i%2 == 1) {
			t.Fatalf("workflow %d: identity projection = %v", i, out == w)
		}
		runtime.AddCleanup(w, func(*int) { collected.Add(1) }, nil)
	}
	deadline := time.Now().Add(10 * time.Second)
	for collected.Load() < n && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got < n {
		t.Errorf("%d of %d projected workflows were collected while the projector lives", got, n)
	}
	runtime.KeepAlive(p)
}

// TestProjectionSlotClearedByMutation: a workflow edited after it was
// projected must be projected again, not served its stale projection.
func TestProjectionSlotClearedByMutation(t *testing.T) {
	p := NewProjector(TypeScorer{}, 0.5)
	w := wfWithModules("w", workflow.TypeWSDL, workflow.TypeLocalWorker)
	if got := p.Project(w).Size(); got != 1 {
		t.Fatalf("projection has %d modules, want 1", got)
	}
	w.AddModule(&workflow.Module{Label: "late", Type: workflow.TypeBeanshell})
	if got := p.Project(w).Size(); got != 2 {
		t.Errorf("projection after AddModule has %d modules, want 2", got)
	}
}

// TestProjectorsDoNotShareSlots: two projectors alternating on one workflow
// each get their own answer.
func TestProjectorsDoNotShareSlots(t *testing.T) {
	strict, keepAll := NewProjector(TypeScorer{}, 0.5), NewProjector(TypeScorer{}, 0)
	w := wfWithModules("w", workflow.TypeWSDL, workflow.TypeLocalWorker)
	for i := 0; i < 3; i++ {
		if got := strict.Project(w).Size(); got != 1 {
			t.Fatalf("round %d: strict projection has %d modules, want 1", i, got)
		}
		if got := keepAll.Project(w); got != w {
			t.Fatalf("round %d: threshold-0 projection is not the workflow itself", i)
		}
	}
}

func TestMeanModuleCount(t *testing.T) {
	wfs := []*workflow.Workflow{
		wfWithModules("a", workflow.TypeWSDL, workflow.TypeLocalWorker, workflow.TypeLocalWorker, workflow.TypeBeanshell),
		wfWithModules("b", workflow.TypeWSDL, workflow.TypeLocalWorker),
	}
	p := NewProjector(TypeScorer{}, 0.5)
	before, after := p.MeanModuleCount(wfs)
	if before != 3 {
		t.Errorf("before = %v, want 3", before)
	}
	if after != 1.5 {
		t.Errorf("after = %v, want 1.5", after)
	}
	if b0, a0 := p.MeanModuleCount(nil); b0 != 0 || a0 != 0 {
		t.Error("empty input should give zeros")
	}
}
