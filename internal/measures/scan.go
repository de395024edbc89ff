package measures

import "repro/internal/module"

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
	// The name stays the un-specialised one, with the "ip" whose projection
	// the scan now applies.
	return project, (&Structural{cfg: cfg, name: s.name}).WithBound()
}
