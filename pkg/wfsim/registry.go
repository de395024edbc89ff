package wfsim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode"

	"repro/internal/measures"
	"repro/internal/repoknow"
)

// Default measure-resolution knobs: the paper's best overall configuration
// as the default measure, its importance-projection threshold, and an
// interactive-scale GED budget.
const (
	// DefaultMeasure is the paper's best structural configuration
	// (Module Sets, importance projection, type equivalence, label edit
	// distance), used wherever a measure name is left empty.
	DefaultMeasure = "MS_ip_te_pll"
	// DefaultProjectionThreshold is the importance-projection cut-off; any
	// positive threshold separates the type scorer's 0/1 scores.
	DefaultProjectionThreshold = 0.5
	// DefaultGEDDeadline is the per-pair graph-edit-distance budget.
	DefaultGEDDeadline = 5 * time.Second
	// DefaultGEDBeamWidth bounds the GED search frontier.
	DefaultGEDBeamWidth = 64
)

// Registry resolves measure names in the paper's notation into configured
// Measure values and holds custom, caller-registered measures. It accepts,
// beyond the canonical "{MS|PS|GE}_{np|ip}_{ta|tm|te}_{scheme}" form:
//
//   - shorthand with tokens omitted or reordered — "MS_plm" means
//     "MS_np_ta_plm", "GE_te_ip_pll" means "GE_ip_te_pll";
//   - "_greedy" (greedy module mapping) and "_nonorm" (skip normalization)
//     suffix tokens;
//   - ensembles in either "ENS(a+b)" or "ensemble(a, b)" spelling, nested
//     arbitrarily, whose members may be custom registered measures.
//
// Scalar names are parsed by the measures package; the registry adds the
// names it holds and the ensemble grammar that nests them. Parsed measures
// render their canonical notation via Measure.Name(). A Registry is safe for
// concurrent use.
type Registry struct {
	mu     sync.RWMutex
	custom map[string]Measure
	// project is the type-based importance projection of "ip" measures. It
	// is set once, by NewRegistry, and never replaced, so it is read without
	// the lock.
	project measures.Projector
}

// NewRegistry returns a registry with the paper's defaults: type-scorer
// importance projection at threshold 0.5.
func NewRegistry() *Registry {
	return &Registry{
		custom:  map[string]Measure{},
		project: repoknow.NewProjector(repoknow.TypeScorer{}, DefaultProjectionThreshold).Project,
	}
}

// Register adds a custom measure under the given name. The name must be
// non-empty, free of whitespace and of the notation metacharacters "_+(),",
// not already taken, and not resolvable as built-in notation (so "BW" cannot
// be shadowed). Registered measures resolve in Parse and inside ensembles.
func (r *Registry) Register(name string, m Measure) error {
	if name == "" || m == nil {
		return fmt.Errorf("Register needs a name and a measure")
	}
	// Parse trims whitespace before it looks a name up, so a name carrying
	// any could never be found again.
	if strings.ContainsAny(name, "_+(),") || strings.IndexFunc(name, unicode.IsSpace) >= 0 {
		return fmt.Errorf("measure name %q contains notation characters or whitespace", name)
	}
	if _, err := measures.Parse(name, measures.ParseOptions{}); err == nil {
		return fmt.Errorf("measure name %q shadows built-in notation", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.custom[name]; dup {
		return fmt.Errorf("measure %q already registered", name)
	}
	r.custom[name] = m
	return nil
}

// Registered returns the names of custom measures, sorted.
func (r *Registry) Registered() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.custom))
	for n := range r.custom {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Builtin enumerates every canonical scalar measure name the notation can
// express without suffixes: BW, BT and the full structural sweep
// (3 topologies x 2 preprocessings x 3 preselections x 6 schemes).
func (r *Registry) Builtin() []string {
	names := []string{"BW", "BT"}
	for _, topo := range []string{"MS", "PS", "GE"} {
		for _, pre := range []string{"np", "ip"} {
			for _, sel := range []string{"ta", "tm", "te"} {
				for _, scheme := range []string{"pw0", "pw3", "pll", "plm", "gw1", "gll"} {
					names = append(names, fmt.Sprintf("%s_%s_%s_%s", topo, pre, sel, scheme))
				}
			}
		}
	}
	return names
}

// Parse resolves a measure name with the default GED budget
// (DefaultGEDDeadline, DefaultGEDBeamWidth); an engine resolves names with
// its own (WithGEDBudget).
func (r *Registry) Parse(name string) (Measure, error) {
	return r.parseResolved(name, DefaultGEDDeadline, DefaultGEDBeamWidth, r.project)
}

// Canonical returns the canonical notation for a measure name, e.g.
// "ensemble(MS_plm, BW)" canonicalizes to "ENS(MS_np_ta_plm+BW)".
func (r *Registry) Canonical(name string) (string, error) {
	m, err := r.Parse(name)
	if err != nil {
		return "", err
	}
	return m.Name(), nil
}

// parseResolved resolves a measure name against an explicit projector — the
// engine passes the projection belonging to the snapshot a read pinned, so
// "ip" measures never mix another generation's module frequencies into the
// parse.
func (r *Registry) parseResolved(name string, deadline time.Duration, beam int, project measures.Projector) (Measure, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return nil, fmt.Errorf("empty measure name")
	}
	r.mu.RLock()
	custom, isCustom := r.custom[name]
	r.mu.RUnlock()
	if isCustom {
		return custom, nil
	}
	if inner, ok := ensembleBody(name); ok {
		parts, err := splitTopLevel(inner)
		if err != nil {
			return nil, fmt.Errorf("ensemble %q: %w", name, err)
		}
		if len(parts) < 2 {
			return nil, fmt.Errorf("ensemble %q needs >= 2 members", name)
		}
		members := make([]Measure, len(parts))
		for i, part := range parts {
			m, err := r.parseResolved(part, deadline, beam, project)
			if err != nil {
				return nil, err
			}
			members[i] = m
		}
		return measures.NewEnsemble(members...), nil
	}
	return measures.Parse(name, measures.ParseOptions{
		Project:      project,
		GEDDeadline:  deadline,
		GEDBeamWidth: beam,
	})
}

// ensembleBody strips an "ENS(...)" or "ensemble(...)" wrapper
// (case-insensitively), returning the member list between the parentheses.
func ensembleBody(name string) (string, bool) {
	open := strings.IndexByte(name, '(')
	if open < 0 || !strings.HasSuffix(name, ")") {
		return "", false
	}
	switch strings.ToLower(name[:open]) {
	case "ens", "ensemble":
		return name[open+1 : len(name)-1], true
	}
	return "", false
}

// splitTopLevel splits an ensemble member list on "+" or "," at parenthesis
// depth zero, so nested ensembles stay intact.
func splitTopLevel(s string) ([]string, error) {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("unbalanced parentheses in %q", s)
			}
		case '+', ',':
			if depth == 0 {
				parts = append(parts, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("unbalanced parentheses in %q", s)
	}
	parts = append(parts, strings.TrimSpace(s[start:]))
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("empty member in %q", s)
		}
	}
	return parts, nil
}
