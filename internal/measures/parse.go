package measures

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/module"
)

// ParseOptions supplies the context a parsed measure needs: how to project
// workflows for ip configurations and the GED budget.
type ParseOptions struct {
	// Project realises the ip token. Required for ip configurations.
	Project Projector
	// GEDDeadline is the per-pair budget for GE measures (0 = unlimited).
	GEDDeadline time.Duration
	// GEDBeamWidth bounds the GE search (0 = exact).
	GEDBeamWidth int
}

// Parse resolves a measure name in the paper's notation (Table 2):
// "BW", "BT", or "{MS|PS|GE}_{np|ip}_{ta|tm|te}_{scheme}", with optional
// "_greedy" and "_nonorm" suffixes, e.g. "MS_ip_te_pll" or
// "GE_np_ta_pw0_nonorm". Ensembles are written "ENS(a+b)" with member names
// in the same notation.
func Parse(name string, opts ParseOptions) (Measure, error) {
	switch name {
	case "BW":
		return BagOfWords{}, nil
	case "BT":
		return BagOfTags{}, nil
	}
	if inner, ok := strings.CutPrefix(name, "ENS("); ok {
		inner, ok = strings.CutSuffix(inner, ")")
		if !ok {
			return nil, fmt.Errorf("measures: unterminated ensemble %q", name)
		}
		var members []Measure
		for _, part := range strings.Split(inner, "+") {
			m, err := Parse(strings.TrimSpace(part), opts)
			if err != nil {
				return nil, err
			}
			members = append(members, m)
		}
		if len(members) < 2 {
			return nil, fmt.Errorf("measures: ensemble %q needs >= 2 members", name)
		}
		return NewEnsemble(members...), nil
	}

	parts := strings.Split(name, "_")
	if len(parts) < 4 {
		return nil, fmt.Errorf("measures: %q is not BW, BT, ENS(...) or TOPO_{np|ip}_{ta|tm|te}_{scheme}[_greedy][_nonorm]", name)
	}
	cfg := Config{
		Normalize:    true,
		GEDDeadline:  opts.GEDDeadline,
		GEDBeamWidth: opts.GEDBeamWidth,
	}
	switch parts[0] {
	case "MS":
		cfg.Topology = ModuleSets
	case "PS":
		cfg.Topology = PathSets
	case "GE":
		cfg.Topology = GraphEdit
	default:
		return nil, fmt.Errorf("measures: unknown topology %q in %q", parts[0], name)
	}
	switch parts[1] {
	case "np":
	case "ip":
		if opts.Project == nil {
			return nil, fmt.Errorf("measures: %q needs ParseOptions.Project for ip", name)
		}
		cfg.Project = opts.Project
	default:
		return nil, fmt.Errorf("measures: unknown preprocessing %q in %q (want np or ip)", parts[1], name)
	}
	switch parts[2] {
	case "ta":
		cfg.Preselect = module.AllPairs
	case "tm":
		cfg.Preselect = module.TypeMatch
	case "te":
		cfg.Preselect = module.TypeEquivalence
	default:
		return nil, fmt.Errorf("measures: unknown preselection %q in %q (want ta, tm or te)", parts[2], name)
	}
	scheme, ok := module.SchemeByName(parts[3])
	if !ok {
		return nil, fmt.Errorf("measures: unknown scheme %q in %q", parts[3], name)
	}
	cfg.Scheme = scheme
	for _, suffix := range parts[4:] {
		switch suffix {
		case "greedy":
			cfg.Mapping = GreedyMapping
		case "nonorm":
			cfg.Normalize = false
		default:
			return nil, fmt.Errorf("measures: unknown suffix %q in %q", suffix, name)
		}
	}
	return NewStructural(cfg).WithBound(), nil
}
