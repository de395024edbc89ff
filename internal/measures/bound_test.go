package measures

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/module"
	"repro/internal/symtab"
	"repro/internal/workflow"
)

// The inputs FuzzScoreBound draws modules from: every type identifier the
// model names plus one it does not, and a small label vocabulary whose edit
// similarities are mostly fractions float64 cannot represent (1/3, 2/7, …),
// so sums of weights round at every step.
var (
	fuzzTypes = []string{
		workflow.TypeWSDL, workflow.TypeArbitraryWSDL, workflow.TypeSoaplabWSDL,
		workflow.TypeBioMoby, workflow.TypeRESTService,
		workflow.TypeBeanshell, workflow.TypeRShell, workflow.TypeScript,
		workflow.TypeLocalWorker, workflow.TypeStringConst,
		workflow.TypeXMLSplitter, workflow.TypeXMLMerger,
		workflow.TypeDataflow, workflow.TypeTool, workflow.TypeUnknown, "custom",
	}
	fuzzLabels = []string{
		"a", "ab", "abc", "abd", "fetch", "fetch_sequence", "fetchSequence",
		"blast", "blastp", "align", "align_genomes", "split_string_2",
	}
	fuzzTexts = []string{"", "x", "fetch a sequence", "fetch sequences"}
)

// fuzzWorkflows decodes data into two workflows of at most limit modules
// each. data[0] picks A's module count and whether both are resolved against
// one symbol table; three bytes per module follow (type, label, optional
// attributes), A's modules first.
func fuzzWorkflows(data []byte, limit int) (a, b *workflow.Workflow) {
	a, b = workflow.New("a"), workflow.New("b")
	if len(data) == 0 {
		return a, b
	}
	nA := int(data[0]&0x7f) % (limit + 1)
	resolve := data[0]&0x80 != 0
	for i := 1; i+2 < len(data) && b.Size() < limit; i += 3 {
		x := data[i+2]
		m := &workflow.Module{
			Type:        fuzzTypes[int(data[i])%len(fuzzTypes)],
			Label:       fuzzLabels[int(data[i+1])%len(fuzzLabels)],
			Description: fuzzTexts[x&3],
			Script:      fuzzTexts[x>>2&3],
			ServiceURI:  fuzzTexts[x>>4&3],
			Authority:   fuzzTexts[x>>6&1],
		}
		if a.Size() < nA {
			a.AddModule(m)
		} else {
			b.AddModule(m)
		}
	}
	if resolve {
		tab := symtab.New()
		a.Resolve(tab)
		b.Resolve(tab)
	}
	return a, b
}

// boundConfigs is every Module Sets configuration the bound has to hold for,
// each with memo, which must belong to the table that resolved the inputs
// they compare: a test builds one per input, as an engine owns one per table.
func boundConfigs(memo *module.SimMemo) []*Structural {
	var out []*Structural
	for _, scheme := range []module.Scheme{module.PLL(), module.PLM(), module.PW0(), module.PW3()} {
		for _, pre := range []module.Preselect{module.AllPairs, module.TypeMatch, module.TypeEquivalence} {
			for _, mapping := range []MappingKind{MaxWeight, GreedyMapping} {
				for _, norm := range []bool{true, false} {
					out = append(out, NewStructural(Config{
						Topology: ModuleSets, Scheme: scheme, Preselect: pre,
						Mapping: mapping, Normalize: norm, Memo: memo,
					}))
				}
			}
		}
	}
	return out
}

// matrixBound is the second tier of the kernel's bound, computed the way
// moduleSets computes it, on the pair and under the memo CompareFloor uses.
func matrixBound(s *Structural, a, b *workflow.Workflow) float64 {
	s, a, b = s.oneTable(a, b)
	if a.Size() == 0 || b.Size() == 0 {
		return 0
	}
	mx := module.AcquireMatrix(a, b, s.cfg.Scheme, s.cfg.Preselect, s.cfg.Memo, module.RowStop{})
	defer mx.Release()
	return s.msScore(min(float64(s.matchCap(a, b)), mx.MatchBound()), float64(a.Size()), float64(b.Size()))
}

// checkScoreBound holds one configuration to the Bounded contract on one
// ordered pair: both tiers of the bound are at least the score Compare
// returns in float64, and CompareFloor returns exactly that score unless the
// tighter tier is below the floor — so never when the score reaches it.
func checkScoreBound(s *Structural, a, b *workflow.Workflow, floor float64) error {
	want, err := s.Compare(a, b)
	if err != nil {
		return err
	}
	bounded := boundedModuleSets{s}
	tier1, tier2 := bounded.UpperBounds(a)(b), matrixBound(s, a, b)
	if !(tier1 >= want) || !(tier2 >= want) || !(tier1 >= tier2) {
		return fmt.Errorf("score %v, class-count bound %v, matrix bound %v: want score <= matrix <= class-count", want, tier1, tier2)
	}
	up, down := math.Inf(1), math.Inf(-1)
	for _, f := range []float64{
		floor, down, up, math.NaN(),
		want, math.Nextafter(want, up), math.Nextafter(want, down),
		tier1, math.Nextafter(tier1, up), tier2, math.Nextafter(tier2, up),
	} {
		got, below, err := bounded.CompareFloor(a, b, f)
		if err != nil {
			return err
		}
		if below != (tier2 < f) {
			return fmt.Errorf("floor %v: below = %v with score %v and bounds %v, %v", f, below, want, tier1, tier2)
		}
		if below && !(got >= want && got < f) {
			return fmt.Errorf("floor %v: gave up with bound %v on a score of %v", f, got, want)
		}
		if !below && math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("floor %v: score %v, Compare returns %v", f, got, want)
		}
	}
	return nil
}

// FuzzScoreBound checks the Module Sets score bound against the score itself
// on random small workflows, under every scheme × preselection × mapping ×
// normalisation, in both argument orders, resolved and not.
func FuzzScoreBound(f *testing.F) {
	f.Add([]byte{}, 0.5)
	f.Add([]byte{0}, 0.0)
	f.Add([]byte{2, 0, 0, 0, 5, 1, 0, 0, 2, 0, 5, 3, 0}, 0.5)
	// Same classes, differently spelled types; one label against its variants.
	f.Add([]byte{0x83, 0, 5, 1, 1, 6, 2, 5, 4, 3, 2, 5, 0, 3, 6, 0, 6, 4, 0}, 0.7)
	// Every class on one side, one class on the other.
	f.Add([]byte{6, 0, 0, 0, 5, 1, 0, 8, 2, 0, 12, 3, 0, 13, 4, 0, 15, 5, 0, 1, 6, 0xff, 2, 7, 0xff}, 0.25)
	// Full attribute sets (pw0, pw3 divide by a sum of seven weights).
	f.Add([]byte{0x84, 0, 5, 0x7b, 1, 6, 0x6e, 5, 9, 0x1b, 9, 10, 0x05, 0, 5, 0x7a, 3, 6, 0x2e, 6, 9, 0x1f, 9, 11, 0x44}, 0.9)
	// 8 × 8, every label distinct or nearly so.
	f.Add([]byte{8, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 6, 0, 6, 7, 0, 7, 8,
		0, 8, 9, 0, 9, 10, 0, 10, 11, 0, 11, 12, 0, 0, 13, 0, 1, 14, 0, 2, 15, 0, 3, 16}, 1.0)
	for _, seed := range rowStopSeeds {
		f.Add(seed.data, seed.floor)
	}
	f.Fuzz(func(t *testing.T, data []byte, floor float64) {
		a, b := fuzzWorkflows(data, 8)
		for _, s := range boundConfigs(module.NewSimMemo()) {
			if err := checkScoreBound(s, a, b, floor); err != nil {
				t.Fatalf("%s(a, b): %v", s.Name(), err)
			}
			if err := checkScoreBound(s, b, a, floor); err != nil {
				t.Fatalf("%s(b, a): %v", s.Name(), err)
			}
		}
	})
}

// rowStopSeeds are FuzzScoreBound inputs on which the weight-matrix fill
// stops at the row bound before its last row (TestRowStopSkipsCells), one
// type class throughout so that the class-count bound lets every pair in.
var rowStopSeeds = []struct {
	data  []byte
	floor float64
}{
	// 4 × 4, A's first label far from all of B's: stops after row 0.
	{[]byte{0x84, 0, 5, 0, 0, 7, 0, 0, 9, 0, 0, 11, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0}, 0.9},
	// 4 × 4, two labels matched exactly, then a poor one: stops after row 2.
	{[]byte{4, 0, 0, 0, 0, 1, 0, 0, 11, 0, 0, 7, 0, 0, 0, 0, 0, 1, 0, 0, 9, 0, 0, 10, 0}, 0.8},
	// 2 × 2 whose score (0.5 + 1.0) / 2.5 is the floor it is tried at: the
	// stop after row 0 must not fire, which it would if a remaining row
	// counted for less than 1.0.
	{[]byte{2, 0, 1, 0, 0, 4, 0, 0, 0, 0, 0, 4, 0}, 0.6},
}

// TestRowStopSkipsCells: on the first two rowStopSeeds, MS_np_te_pll under
// the seed's floor gives up part-way through the weight matrix, comparing
// fewer cells than the full matrix holds.
func TestRowStopSkipsCells(t *testing.T) {
	for i, seed := range rowStopSeeds[:2] {
		a, b := oneTable(fuzzWorkflows(seed.data, 8))
		full, st := module.WeightMatrix(a, b, module.PLL(), module.TypeEquivalence)
		var counter PairCounter
		s := NewStructural(Config{Topology: ModuleSets, Scheme: module.PLL(), Preselect: module.TypeEquivalence, Normalize: true, Counter: &counter})
		_, below, _ := boundedModuleSets{s}.CompareFloor(a, b, seed.floor)
		if !below || counter.Compared() >= int64(st.Compared) {
			t.Errorf("seed %d: below = %v after comparing %d of %d cells of a %d-row matrix, want below after fewer",
				i, below, counter.Compared(), st.Compared, len(full))
		}
	}
}

// TestCompareCountsEveryCell: the row stop fires only under a finite floor.
// Compare, and CompareFloor at -Inf, count every cell the preselection
// admits, as the full weight matrix does — the counts behind the paper's te
// comparison-count ratio — and a finite floor never counts more.
func TestCompareCountsEveryCell(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	data := make([]byte, 1+3*48)
	for i := 0; i < 40; i++ {
		r.Read(data)
		if i%2 == 0 {
			for j := 1; j < len(data); j += 3 {
				data[j] %= 3
			}
		}
		a, b := oneTable(fuzzWorkflows(data, 24))
		for _, s := range boundConfigs(module.NewSimMemo()) {
			cfg := s.Config()
			_, want := module.WeightMatrix(a, b, cfg.Scheme, cfg.Preselect)
			score, err := s.Compare(a, b)
			if err != nil {
				t.Fatal(err)
			}
			for name, run := range map[string]func(s *Structural){
				"Compare":            func(s *Structural) { s.Compare(a, b) },
				"CompareFloor(-Inf)": func(s *Structural) { boundedModuleSets{s}.CompareFloor(a, b, math.Inf(-1)) },
			} {
				var counter PairCounter
				cfg.Counter = &counter
				run(NewStructural(cfg))
				if counter.Total() != int64(want.Total) || counter.Compared() != int64(want.Compared) {
					t.Fatalf("pair %d, %s %s: counted %d of %d cells, the full matrix %d of %d",
						i, s.Name(), name, counter.Compared(), counter.Total(), want.Compared, want.Total)
				}
			}
			var counter PairCounter
			cfg.Counter = &counter
			boundedModuleSets{NewStructural(cfg)}.CompareFloor(a, b, math.Nextafter(score, math.Inf(1)))
			if counter.Compared() > int64(want.Compared) {
				t.Fatalf("pair %d, %s under a floor: counted %d cells, the full matrix %d", i, s.Name(), counter.Compared(), want.Compared)
			}
		}
	}
}

// TestScoreBoundOnLargerWorkflows runs the fuzz target's check on random
// pairs of up to 24 modules: sums of that many weights round often enough
// for a bound that only holds in the reals to show.
func TestScoreBoundOnLargerWorkflows(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	data := make([]byte, 1+3*48)
	for i := 0; i < 60; i++ {
		r.Read(data)
		if i%2 == 0 {
			// Few types: large classes, so te and tm leave dense blocks.
			for j := 1; j < len(data); j += 3 {
				data[j] %= 3
			}
		}
		a, b := fuzzWorkflows(data, 24)
		for _, s := range boundConfigs(module.NewSimMemo()) {
			if err := checkScoreBound(s, a, b, r.Float64()); err != nil {
				t.Fatalf("pair %d, %s: %v", i, s.Name(), err)
			}
		}
	}
}

// TestOnlyModuleSetsIsBounded: a measure without a bound does not implement
// Bounded — as parsed, as built, or as specialised for a scan.
func TestOnlyModuleSetsIsBounded(t *testing.T) {
	parse := func(name string) Measure {
		m, err := Parse(name, ParseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, m := range []Measure{
		parse("MS_np_ta_pll"), parse("MS_np_te_pw3_greedy_nonorm"), parse("PS_np_ta_pll"), parse("GE_np_ta_pll"), parse("BW"),
		NewEnsemble(parse("BW"), parse("MS_np_ta_pll")),
	} {
		name := m.Name()
		want := name[:2] == "MS"
		if _, ok := m.(Bounded); ok != want {
			t.Errorf("Parse(%q) implements Bounded: %v, want %v", name, ok, want)
		}
		sp, ok := m.(Specialisable)
		if !ok {
			continue
		}
		if _, bare := m.(*Structural); bare == want {
			t.Errorf("Parse(%q) is a bare *Structural: %v, want %v", name, bare, !want)
		}
		_, inner := sp.Specialise(module.NewSimMemo())
		if _, ok := inner.(Bounded); ok != want || inner.Name() != name {
			t.Errorf("%q specialised: implements Bounded %v (want %v), named %q", name, ok, want, inner.Name())
		}
	}
}
