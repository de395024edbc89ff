package measures

import (
	"testing"
	"time"

	"repro/internal/repoknow"
)

func parseOpts() ParseOptions {
	proj := repoknow.NewProjector(repoknow.TypeScorer{}, 0.5)
	return ParseOptions{Project: proj.Project, GEDDeadline: time.Second, GEDBeamWidth: 16}
}

func TestParseRoundTripsNames(t *testing.T) {
	names := []string{
		"BW", "BT",
		"MS_np_ta_pw0", "MS_ip_te_pll", "PS_np_ta_pw3", "PS_ip_te_pll",
		"GE_ip_te_pll", "GE_np_ta_pw0_nonorm", "MS_np_ta_pw0_greedy",
		"MS_np_tm_plm", "MS_np_ta_gw1", "MS_np_ta_gll",
	}
	for _, name := range names {
		m, err := Parse(name, parseOpts())
		if err != nil {
			t.Errorf("Parse(%q): %v", name, err)
			continue
		}
		if m.Name() != name {
			t.Errorf("Parse(%q).Name() = %q", name, m.Name())
		}
	}
}

// TestParseShorthand: tokens are classified by value, in any order and any
// case, np and ta are the defaults, and Name renders the canonical order.
func TestParseShorthand(t *testing.T) {
	cases := map[string]string{
		"MS_plm":                     "MS_np_ta_plm",
		"GE_ip_pll":                  "GE_ip_ta_pll",
		"MS_te_pll":                  "MS_np_te_pll",
		"MS_te_ip_pll":               "MS_ip_te_pll",
		"ms_IP_te_PLL":               "MS_ip_te_pll",
		"PS_nonorm_pll":              "PS_np_ta_pll_nonorm",
		"GE_pw0_nonorm_greedy_te":    "GE_np_te_pw0_greedy_nonorm",
		"MS_greedy_pll_greedy":       "MS_np_ta_pll_greedy",
		"bw":                         "BW",
		"bT":                         "BT",
		"MS_np_ta_pll_nonorm_greedy": "MS_np_ta_pll_greedy_nonorm",
	}
	for in, want := range cases {
		m, err := Parse(in, parseOpts())
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if m.Name() != want {
			t.Errorf("Parse(%q).Name() = %q, want %q", in, m.Name(), want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "XX", "MS", "MS_np", "MS_np_ta", "MS_np_ta_nope",
		"ZZ_np_ta_pll", "MS_xx_ta_pll", "MS_np_xx_pll",
		"MS_np_ta_pll_bogus", "MS__pll", "MS_pll_",
		"MS_np_ip_pll", "MS_ta_te_pll", "MS_pll_plm", // one token per slot
		"ENS(BW+MS_ip_te_pll)", "ENS(BW)", "ENS(BW+", // ensembles are the registry's
	}
	for _, name := range bad {
		if _, err := Parse(name, parseOpts()); err == nil {
			t.Errorf("Parse(%q) should fail", name)
		}
	}
	// ip without a projector.
	if _, err := Parse("MS_ip_ta_pll", ParseOptions{}); err == nil {
		t.Error("ip without Project should fail")
	}
}

func TestParseAppliesGEDBudget(t *testing.T) {
	m, err := Parse("GE_np_ta_pll", parseOpts())
	if err != nil {
		t.Fatal(err)
	}
	st, ok := m.(*Structural)
	if !ok {
		t.Fatalf("not structural: %T", m)
	}
	if st.Config().GEDDeadline != time.Second || st.Config().GEDBeamWidth != 16 {
		t.Errorf("GED budget not applied: %+v", st.Config())
	}
}
