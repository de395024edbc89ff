package measures

import (
	"repro/internal/module"
	"repro/internal/workflow"
)

// Specialisable is implemented by measures that can be specialised for a
// whole-repository scan: the scan driver hoists the importance projection out
// of the per-pair Compare (projecting each workflow once per scan instead of
// once per pair) and installs a memo for repeated attribute comparisons.
// The specialised measure returns bit-identical scores; only redundant work
// is removed.
type Specialisable interface {
	// Specialise returns the projection to apply per workflow (nil when the
	// measure has none) and a measure that compares PRE-PROJECTED workflows
	// with the memo installed. The returned measure keeps the original
	// Name(), so stats and cache keys are unaffected.
	Specialise(memo *module.SimMemo) (Projector, Measure)
}

// Specialise implements Specialisable for structural measures.
func (s *Structural) Specialise(memo *module.SimMemo) (Projector, Measure) {
	cfg := s.cfg
	project := cfg.Project
	cfg.Project = nil
	cfg.Memo = memo
	r := renamed{inner: NewStructural(cfg), name: s.Name()}
	if b, ok := r.inner.WithBound().(boundedModuleSets); ok {
		return project, renamedBounded{r, b}
	}
	return project, r
}

// renamed preserves the un-specialised measure's notation name (e.g. the
// "ip" of a projection hoisted out by Specialise) on the specialised inner
// measure.
type renamed struct {
	inner *Structural
	name  string
}

func (r renamed) Name() string { return r.name }

func (r renamed) Compare(a, b *workflow.Workflow) (float64, error) {
	return r.inner.Compare(a, b)
}

// renamedBounded is renamed for a measure that has a score bound.
type renamedBounded struct {
	renamed
	boundedModuleSets
}
