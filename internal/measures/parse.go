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

// Parse resolves a scalar measure name in the paper's notation (Table 2):
// "BW", "BT", or "{MS|PS|GE}_{np|ip}_{ta|tm|te}_{scheme}" with optional
// "greedy" and "nonorm" tokens, e.g. "MS_ip_te_pll" or "GE_np_ta_pw0_nonorm".
// Case is ignored, and the tokens after the topology are classified by value,
// so they may come in any order and np and ta may be left out: "ms_te_ip_pll"
// is "MS_ip_te_pll", "MS_plm" is "MS_np_ta_plm". The parsed measure's Name is
// the canonical form. Ensembles and registered names belong to the caller's
// registry (pkg/wfsim), which hands every scalar name to Parse.
func Parse(name string, opts ParseOptions) (Measure, error) {
	switch strings.ToUpper(name) {
	case "BW":
		return BagOfWords{}, nil
	case "BT":
		return BagOfTags{}, nil
	}
	tokens := strings.Split(name, "_")
	cfg := Config{
		Normalize:    true,
		GEDDeadline:  opts.GEDDeadline,
		GEDBeamWidth: opts.GEDBeamWidth,
	}
	switch strings.ToUpper(tokens[0]) {
	case "MS":
		cfg.Topology = ModuleSets
	case "PS":
		cfg.Topology = PathSets
	case "GE":
		cfg.Topology = GraphEdit
	default:
		return nil, fmt.Errorf("%q is not a known measure: want BW, BT, a registered name, {MS|PS|GE}_... notation, or ENS(...)/ensemble(...)", name)
	}
	var pre, sel, scheme string // the token each slot took so far
	for _, tok := range tokens[1:] {
		t := strings.ToLower(tok)
		slot, taken := "", ""
		switch t {
		case "np", "ip":
			slot, taken, pre = "preprocessing", pre, t
		case "ta":
			slot, taken, sel = "preselection", sel, t
			cfg.Preselect = module.AllPairs
		case "tm":
			slot, taken, sel = "preselection", sel, t
			cfg.Preselect = module.TypeMatch
		case "te":
			slot, taken, sel = "preselection", sel, t
			cfg.Preselect = module.TypeEquivalence
		case "greedy":
			cfg.Mapping = GreedyMapping
		case "nonorm":
			cfg.Normalize = false
		default:
			s, ok := module.SchemeByName(t)
			if !ok {
				return nil, fmt.Errorf("%q: unknown token %q (want np/ip, ta/tm/te, a scheme like pll, greedy or nonorm)", name, tok)
			}
			slot, taken, scheme = "scheme", scheme, t
			cfg.Scheme = s
		}
		if taken != "" {
			return nil, fmt.Errorf("%q: duplicate %s token %q", name, slot, tok)
		}
	}
	if scheme == "" {
		return nil, fmt.Errorf("%q: missing module-comparison scheme (pw0, pw3, pll, plm, gw1 or gll)", name)
	}
	if pre == "ip" {
		if opts.Project == nil {
			return nil, fmt.Errorf("%q needs ParseOptions.Project for ip", name)
		}
		cfg.Project = opts.Project
	}
	return NewStructural(cfg).WithBound(), nil
}
