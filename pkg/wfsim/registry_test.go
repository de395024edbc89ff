package wfsim

import (
	"fmt"
	"testing"

	"repro/internal/measures"
	"repro/internal/oracle"
)

// TestRegistryRoundTripsEveryFamily parses every canonical scalar name the
// notation can express — MS/PS/GE x np/ip x ta/tm/te x all six schemes, plus
// BW and BT — and checks Measure.Name() round-trips it.
func TestRegistryRoundTripsEveryFamily(t *testing.T) {
	reg := NewRegistry()
	names := reg.Builtin()
	if len(names) != 2+3*2*3*6 {
		t.Fatalf("Builtin() = %d names, want %d", len(names), 2+3*2*3*6)
	}
	for _, name := range names {
		m, err := reg.Parse(name)
		if err != nil {
			t.Errorf("Parse(%q): %v", name, err)
			continue
		}
		if m.Name() != name {
			t.Errorf("Parse(%q).Name() = %q", name, m.Name())
		}
	}
}

// suffixNames are canonical names with mapping and normalization suffixes.
var suffixNames = []string{"MS_np_ta_pw0_greedy", "GE_np_ta_pw0_nonorm", "PS_ip_te_pll_greedy_nonorm"}

func TestRegistryRoundTripsSuffixes(t *testing.T) {
	reg := NewRegistry()
	for _, name := range suffixNames {
		m, err := reg.Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("Parse(%q).Name() = %q", name, m.Name())
		}
	}
}

// shorthandCases maps shorthand and ensemble spellings to canonical names.
var shorthandCases = map[string]string{
	"MS_plm":               "MS_np_ta_plm",
	"MS_pll":               "MS_np_ta_pll",
	"GE_ip_pll":            "GE_ip_ta_pll",
	"MS_te_pll":            "MS_np_te_pll",
	"MS_te_ip_pll":         "MS_ip_te_pll",
	"ms_ip_te_pll":         "MS_ip_te_pll",
	"PS_nonorm_pll":        "PS_np_ta_pll_nonorm",
	"bw":                   "BW",
	"bt":                   "BT",
	"MS_PLL":               "MS_np_ta_pll",
	"ENS(MS_plm+bw)":       "ENS(MS_np_ta_plm+BW)",
	"ensemble(MS_plm,BW)":  "ENS(MS_np_ta_plm+BW)",
	"ensemble(MS_plm, BW)": "ENS(MS_np_ta_plm+BW)",
}

// TestRegistryShorthand checks missing/reordered tokens canonicalize: the
// notation parser classifies tokens by value, defaults preprocessing to np
// and preselection to ta, and renders the canonical order.
func TestRegistryShorthand(t *testing.T) {
	reg := NewRegistry()
	for in, want := range shorthandCases {
		got, err := reg.Canonical(in)
		if err != nil {
			t.Errorf("Canonical(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

// nestedEnsemble nests an ensemble inside another.
const nestedEnsemble = "ensemble(BT, ensemble(BW, MS_plm), GE_ip_te_pll)"

func TestRegistryNestedEnsemble(t *testing.T) {
	reg := NewRegistry()
	got, err := reg.Canonical(nestedEnsemble)
	if err != nil {
		t.Fatal(err)
	}
	want := "ENS(BT+ENS(BW+MS_np_ta_plm)+GE_ip_te_pll)"
	if got != want {
		t.Errorf("nested ensemble = %q, want %q", got, want)
	}
	// The canonical form itself parses back.
	if _, err := reg.Parse(got); err != nil {
		t.Errorf("canonical form %q does not re-parse: %v", got, err)
	}
}

// badNames are names Parse must refuse.
var badNames = []string{
	"", "   ", "XX", "MS", "MS_np", "MS_np_ta", "MS_np_ta_nope",
	"ZZ_np_ta_pll", "MS_xx_ta_pll", "MS_np_xx_pll",
	"MS_np_ta_pll_bogus",
	"MS_np_ip_pll",      // duplicate preprocessing
	"MS_ta_te_pll",      // duplicate preselection
	"MS_pll_plm",        // duplicate scheme
	"ENS(BW)",           // single member
	"ensemble(BW)",      // single member, alternate spelling
	"ENS(BW+",           // unterminated
	"ensemble(BW,,BT)",  // empty member
	"ENS(BW+(BT)",       // unbalanced parens
	"ensemble(BW+BT))",  // unbalanced parens
	"ensemble(BW,nope)", // unknown member
}

func TestRegistryErrors(t *testing.T) {
	reg := NewRegistry()
	for _, name := range badNames {
		if _, err := reg.Parse(name); err == nil {
			t.Errorf("Parse(%q) should fail", name)
		}
	}
}

type constantMeasure struct {
	name string
	v    float64
}

func (m constantMeasure) Name() string { return m.name }
func (m constantMeasure) Compare(a, b *Workflow) (float64, error) {
	return m.v, nil
}

func TestRegistryCustomMeasures(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("half", constantMeasure{name: "half", v: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("half", constantMeasure{name: "half", v: 0.5}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := reg.Register("bad name", constantMeasure{name: "x"}); err == nil {
		t.Error("name with notation characters accepted")
	}
	// Parse trims whitespace before it looks a name up, so a name carrying
	// any could never be found.
	for _, name := range []string{"x\t", "x\n", "\tx", "x\u00a0y", "x\ry"} {
		if err := reg.Register(name, constantMeasure{name: name}); err == nil {
			t.Errorf("Register(%q) accepted a name with whitespace", name)
		}
	}
	// Built-in notation must not be shadowable ("MS" alone is fine: it
	// never resolves without a scheme, so there is nothing to shadow).
	for _, name := range []string{"BW", "bt"} {
		if err := reg.Register(name, constantMeasure{name: name}); err == nil {
			t.Errorf("Register(%q) shadows built-in notation", name)
		}
	}
	m, err := reg.Parse("half")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "half" {
		t.Errorf("Name = %q", m.Name())
	}
	// Custom measures compose into ensembles with built-ins.
	ens, err := reg.Parse("ensemble(half, BW)")
	if err != nil {
		t.Fatal(err)
	}
	if ens.Name() != "ENS(half+BW)" {
		t.Errorf("ensemble name = %q", ens.Name())
	}
	if got := reg.Registered(); len(got) != 1 || got[0] != "half" {
		t.Errorf("Registered = %v", got)
	}
}

func TestRegistryBuiltinAllParse(t *testing.T) {
	reg := NewRegistry()
	for _, scheme := range []string{"pw0", "pw3", "pll", "plm", "gw1", "gll"} {
		name := fmt.Sprintf("GE_ip_te_%s", scheme)
		if _, err := reg.Parse(name); err != nil {
			t.Errorf("Parse(%q): %v", name, err)
		}
	}
}

// TestRegistryEnsembleMembers: an ensemble parses into a measures.Ensemble
// holding one parsed measure per member.
func TestRegistryEnsembleMembers(t *testing.T) {
	m, err := NewRegistry().Parse("ENS(BW+MS_ip_te_pll)")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "ENS(BW+MS_ip_te_pll)" {
		t.Errorf("Name = %q", m.Name())
	}
	ens, ok := m.(*measures.Ensemble)
	if !ok || len(ens.Members()) != 2 || ens.Members()[0].Name() != "BW" || ens.Members()[1].Name() != "MS_ip_te_pll" {
		t.Errorf("ensemble structure wrong: %T", m)
	}
}

// FuzzParseMeasure: no name panics the parser, and every name it accepts —
// shorthand, ensembles, the registered custom measure — renders a canonical
// name that parses back to itself.
func FuzzParseMeasure(f *testing.F) {
	reg := NewRegistry()
	if err := reg.Register("half", constantMeasure{name: "half", v: 0.5}); err != nil {
		f.Fatal(err)
	}
	for _, name := range parseSeeds() {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		m, err := reg.Parse(name)
		if err != nil {
			return
		}
		again, err := reg.Parse(m.Name())
		if err != nil {
			t.Fatalf("Parse(%q) is %q, which does not parse: %v", name, m.Name(), err)
		}
		if again.Name() != m.Name() {
			t.Fatalf("Parse(%q) is %q, which parses as %q", name, m.Name(), again.Name())
		}
	})
}

// parseSeeds is every name the registry and measures parser tests use, plus
// the whole built-in sweep: the fuzzer's seed corpus.
func parseSeeds() []string {
	seeds := append([]string{nestedEnsemble, "half", "ensemble(half, BW)", "ENS(half+ENS(BW+MS_plm))"}, suffixNames...)
	seeds = append(seeds, badNames...)
	for in, want := range shorthandCases {
		seeds = append(seeds, in, want)
	}
	seeds = append(seeds, NewRegistry().Builtin()...)
	// The measures package's own cases.
	return append(seeds,
		"MS_np_tm_plm", "MS_np_ta_gw1", "MS_np_ta_gll", "ms_IP_te_PLL", "GE_pw0_nonorm_greedy_te",
		"MS_greedy_pll_greedy", "bT", "MS_np_ta_pll_nonorm_greedy", "MS__pll", "MS_pll_",
		"ENS(BW+MS_ip_te_pll)", "MS_ip_ta_pll", "GE_np_ta_pll")
}

// TestMeasuresIgnoreAnotherTablesSymbols: a measure from the registry
// compares workflows two repositories resolved — each by its own symbol
// table — as the oracle's string definition does. Two tables assign the same
// IDs to different strings, so a measure that read one side's attribute IDs
// against the other's scored most of these pairs wrong (MS_np_ta_pll 80,
// MS_np_tm_plm 64 and MS_np_ta_pw0 98 of 100).
func TestMeasuresIgnoreAnotherTablesSymbols(t *testing.T) {
	corpusOf := func(p Profile, seed int64) []*Workflow {
		p.Workflows, p.Clusters = 30, 5
		c, err := GenerateCorpus(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		return c.Repo.Snapshot().Workflows()[:10]
	}
	taverna, galaxy := corpusOf(TavernaProfile(), 1), corpusOf(GalaxyProfile(), 2)
	if taverna[0].SymtabRef() == galaxy[0].SymtabRef() {
		t.Fatal("the two corpora share a symbol table")
	}
	reg := NewRegistry()
	for _, name := range []string{"MS_np_ta_pll", "MS_np_tm_plm", "MS_np_ta_pw0", "MS_ip_te_pw3", "BW", "BT"} {
		m, err := reg.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		ref, ok := oracle.Lookup(name)
		if !ok {
			t.Fatalf("the oracle has no %s", name)
		}
		wrong := 0
		for _, a := range taverna {
			for _, b := range galaxy {
				got, err := m.Compare(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if !oracle.Close(got, ref.Compare(a, b)) {
					wrong++
				}
			}
		}
		if wrong > 0 {
			t.Errorf("%s: %d of %d scores differ from the oracle's", name, wrong, len(taverna)*len(galaxy))
		}
	}
}
