package measures

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/module"
	"repro/internal/repoknow"
	"repro/internal/workflow"
)

// keggWorkflow builds a small realistic workflow: fetch pathway from KEGG,
// split result, render.
func keggWorkflow(id string) *workflow.Workflow {
	w := workflow.New(id)
	w.Annotations = workflow.Annotations{
		Title:       "KEGG pathway analysis",
		Description: "Retrieves KEGG pathways for a list of genes and renders them",
		Tags:        []string{"kegg", "pathway", "bioinformatics"},
	}
	get := w.AddModule(&workflow.Module{
		ID: "m0", Label: "get_pathways_by_genes", Type: workflow.TypeWSDL,
		ServiceURI: "http://soap.genome.jp/KEGG.wsdl", ServiceName: "get_pathways_by_genes", Authority: "kegg",
	})
	split := w.AddModule(&workflow.Module{
		ID: "m1", Label: "split_string", Type: workflow.TypeLocalWorker,
	})
	render := w.AddModule(&workflow.Module{
		ID: "m2", Label: "render_pathway_diagram", Type: workflow.TypeBeanshell, Script: "render(input);",
	})
	_ = w.AddEdge(get, split)
	_ = w.AddEdge(split, render)
	return w
}

// blastWorkflow builds a functionally unrelated workflow.
func blastWorkflow(id string) *workflow.Workflow {
	w := workflow.New(id)
	w.Annotations = workflow.Annotations{
		Title:       "Protein sequence alignment",
		Description: "Runs NCBI BLAST against swissprot and filters hits",
		Tags:        []string{"blast", "alignment"},
	}
	fetch := w.AddModule(&workflow.Module{
		ID: "m0", Label: "fetch_sequence", Type: workflow.TypeSoaplabWSDL,
		ServiceURI: "http://www.ebi.ac.uk/soaplab/fetchseq", ServiceName: "fetchseq", Authority: "ebi",
	})
	blast := w.AddModule(&workflow.Module{
		ID: "m1", Label: "run_ncbi_blast", Type: workflow.TypeSoaplabWSDL,
		ServiceURI: "http://www.ebi.ac.uk/soaplab/blast", ServiceName: "blastall", Authority: "ebi",
	})
	filter := w.AddModule(&workflow.Module{
		ID: "m2", Label: "filter_hits", Type: workflow.TypeRShell, Script: "hits[hits$eval < 1e-5,]",
	})
	_ = w.AddEdge(fetch, blast)
	_ = w.AddEdge(blast, filter)
	return w
}

func msConfig() Config {
	return Config{Topology: ModuleSets, Scheme: module.PW0(), Preselect: module.AllPairs, Normalize: true}
}

func allTopologies() []Config {
	base := msConfig()
	ps := base
	ps.Topology = PathSets
	ge := base
	ge.Topology = GraphEdit
	return []Config{base, ps, ge}
}

func TestStructuralIdentity(t *testing.T) {
	a := keggWorkflow("a")
	for _, cfg := range allTopologies() {
		m := NewStructural(cfg)
		got, err := m.Compare(a, a)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if math.Abs(got-1) > 1e-9 {
			t.Errorf("%s self-similarity = %v, want 1", m.Name(), got)
		}
	}
}

func TestStructuralUnrelatedLow(t *testing.T) {
	a, b := keggWorkflow("a"), blastWorkflow("b")
	for _, cfg := range allTopologies() {
		m := NewStructural(cfg)
		self, _ := m.Compare(a, a)
		cross, err := m.Compare(a, b)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if cross >= self {
			t.Errorf("%s: unrelated pair %v >= identical pair %v", m.Name(), cross, self)
		}
	}
}

func TestStructuralSymmetry(t *testing.T) {
	a, b := keggWorkflow("a"), blastWorkflow("b")
	for _, cfg := range allTopologies() {
		m := NewStructural(cfg)
		ab, err1 := m.Compare(a, b)
		ba, err2 := m.Compare(b, a)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", m.Name(), err1, err2)
		}
		if math.Abs(ab-ba) > 1e-9 {
			t.Errorf("%s asymmetric: %v vs %v", m.Name(), ab, ba)
		}
	}
}

func TestStructuralEmptyWorkflows(t *testing.T) {
	empty := workflow.New("empty")
	a := keggWorkflow("a")
	for _, cfg := range allTopologies() {
		m := NewStructural(cfg)
		got, err := m.Compare(a, empty)
		if err != nil {
			t.Fatalf("%s vs empty: %v", m.Name(), err)
		}
		if got < 0 || got > 0.2 {
			t.Errorf("%s vs empty = %v, want near 0", m.Name(), got)
		}
	}
}

func TestNames(t *testing.T) {
	proj := repoknow.NewProjector(repoknow.TypeScorer{}, 0.5)
	cfg := Config{
		Topology:  ModuleSets,
		Scheme:    module.PLL(),
		Preselect: module.TypeEquivalence,
		Project:   proj.Project,
		Normalize: true,
	}
	if got := NewStructural(cfg).Name(); got != "MS_ip_te_pll" {
		t.Errorf("Name = %q, want MS_ip_te_pll", got)
	}
	cfg.Project = nil
	cfg.Preselect = module.AllPairs
	cfg.Scheme = module.PW0()
	cfg.Topology = GraphEdit
	cfg.Normalize = false
	if got := NewStructural(cfg).Name(); got != "GE_np_ta_pw0_nonorm" {
		t.Errorf("Name = %q, want GE_np_ta_pw0_nonorm", got)
	}
	cfg.Normalize = true
	cfg.Mapping = GreedyMapping
	if got := NewStructural(cfg).Name(); got != "GE_np_ta_pw0_greedy" {
		t.Errorf("Name = %q, want GE_np_ta_pw0_greedy", got)
	}
}

func TestImportanceProjectionAffectsMS(t *testing.T) {
	// Two workflows identical except for trivial local shims: under ip
	// they become identical.
	a := keggWorkflow("a")
	b := keggWorkflow("b")
	extra := b.AddModule(&workflow.Module{Label: "flatten_list", Type: workflow.TypeLocalWorker})
	_ = b.AddEdge(0, extra)

	proj := repoknow.NewProjector(repoknow.TypeScorer{}, 0.5)
	with := NewStructural(Config{Topology: ModuleSets, Scheme: module.PW0(), Normalize: true, Project: proj.Project})
	without := NewStructural(msConfig())

	sWith, _ := with.Compare(a, b)
	sWithout, _ := without.Compare(a, b)
	if math.Abs(sWith-1) > 1e-9 {
		t.Errorf("ip similarity = %v, want 1 (shims projected away)", sWith)
	}
	if sWithout >= sWith {
		t.Errorf("np similarity %v should be below ip similarity %v", sWithout, sWith)
	}
}

func TestGEDTimeoutPropagates(t *testing.T) {
	// Large random-ish workflows with a microscopic deadline must yield an
	// error, mirroring the paper's disregarded pairs.
	a, b := workflow.New("a"), workflow.New("b")
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 16; i++ {
		a.AddModule(&workflow.Module{Label: randLabel(r), Type: workflow.TypeWSDL})
		b.AddModule(&workflow.Module{Label: randLabel(r), Type: workflow.TypeWSDL})
	}
	for i := 0; i < 15; i++ {
		_ = a.AddEdge(i, i+1)
		_ = b.AddEdge(i, i+1)
	}
	cfg := msConfig()
	cfg.Topology = GraphEdit
	cfg.GEDDeadline = time.Nanosecond
	if _, err := NewStructural(cfg).Compare(a, b); err == nil {
		t.Fatal("expected timeout error")
	}
}

func TestUnnormalizedGE(t *testing.T) {
	a, b := keggWorkflow("a"), blastWorkflow("b")
	cfg := msConfig()
	cfg.Topology = GraphEdit
	cfg.Normalize = false
	m := NewStructural(cfg)
	self, _ := m.Compare(a, a)
	if self != 0 {
		t.Errorf("unnormalized GE self = %v, want 0 (-cost)", self)
	}
	cross, _ := m.Compare(a, b)
	if cross >= 0 {
		t.Errorf("unnormalized GE cross = %v, want negative", cross)
	}
}

func TestPairCounterAndPreselectionReduction(t *testing.T) {
	a, b := keggWorkflow("a"), blastWorkflow("b")
	var all, te PairCounter

	cfgAll := msConfig()
	cfgAll.Counter = &all
	if _, err := NewStructural(cfgAll).Compare(a, b); err != nil {
		t.Fatal(err)
	}
	cfgTE := msConfig()
	cfgTE.Preselect = module.TypeEquivalence
	cfgTE.Counter = &te
	if _, err := NewStructural(cfgTE).Compare(a, b); err != nil {
		t.Fatal(err)
	}
	if all.Compared() != 9 {
		t.Errorf("ta compared = %d, want 9", all.Compared())
	}
	if te.Compared() >= all.Compared() {
		t.Errorf("te compared %d not below ta %d", te.Compared(), all.Compared())
	}
	if te.Total() != 9 {
		t.Errorf("te total = %d, want 9", te.Total())
	}
}

func TestBagOfWords(t *testing.T) {
	a, b := keggWorkflow("a"), blastWorkflow("b")
	bw := BagOfWords{}
	if got, _ := bw.Compare(a, a); got != 1 {
		t.Errorf("BW self = %v, want 1", got)
	}
	cross, _ := bw.Compare(a, b)
	if cross >= 0.5 {
		t.Errorf("BW unrelated = %v, want low", cross)
	}
	if bw.Name() != "BW" {
		t.Errorf("BW name = %q", bw.Name())
	}
	bare := workflow.New("bare")
	if got, _ := bw.Compare(a, bare); got != 0 {
		t.Errorf("BW vs annotation-less = %v, want 0", got)
	}
	if HasWords(bare) {
		t.Error("HasWords on bare workflow")
	}
}

func TestBagOfTags(t *testing.T) {
	a, b := keggWorkflow("a"), blastWorkflow("b")
	bt := BagOfTags{}
	if got, _ := bt.Compare(a, a); got != 1 {
		t.Errorf("BT self = %v, want 1", got)
	}
	if got, _ := bt.Compare(a, b); got != 0 {
		t.Errorf("BT disjoint tags = %v, want 0", got)
	}
	c := keggWorkflow("c")
	c.Annotations.Tags = []string{"KEGG", " pathway "} // case/space folding
	got, _ := bt.Compare(a, c)
	if math.Abs(got-2.0/3.0) > 1e-9 {
		t.Errorf("BT partial = %v, want 2/3", got)
	}
	if HasTags(workflow.New("x")) {
		t.Error("HasTags on tagless workflow")
	}
}

func TestEnsemble(t *testing.T) {
	a, b := keggWorkflow("a"), blastWorkflow("b")
	ms := NewStructural(msConfig())
	ens := NewEnsemble(BagOfWords{}, ms)
	if got := ens.Name(); got != "ENS(BW+MS_np_ta_pw0)" {
		t.Errorf("ensemble name = %q", got)
	}
	self, err := ens.Compare(a, a)
	if err != nil || math.Abs(self-1) > 1e-9 {
		t.Errorf("ensemble self = %v, %v", self, err)
	}
	sBW, _ := BagOfWords{}.Compare(a, b)
	sMS, _ := ms.Compare(a, b)
	got, _ := ens.Compare(a, b)
	want := (sBW + sMS) / 2
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ensemble mean = %v, want %v", got, want)
	}
}

func TestWeightedEnsemble(t *testing.T) {
	a, b := keggWorkflow("a"), blastWorkflow("b")
	ms := NewStructural(msConfig())
	ens := NewWeightedEnsemble([]Measure{BagOfWords{}, ms}, []float64{3, 1})
	sBW, _ := BagOfWords{}.Compare(a, b)
	sMS, _ := ms.Compare(a, b)
	got, _ := ens.Compare(a, b)
	want := (3*sBW + sMS) / 4
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("weighted ensemble = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched weights must panic")
		}
	}()
	NewWeightedEnsemble([]Measure{ms}, []float64{1, 2})
}

func randLabel(r *rand.Rand) string {
	words := []string{"get", "fetch", "run", "parse", "blast", "align", "merge", "split", "render", "filter"}
	return words[r.Intn(len(words))] + "_" + words[r.Intn(len(words))]
}

func randWorkflow(r *rand.Rand, id string) *workflow.Workflow {
	w := workflow.New(id)
	n := r.Intn(6) + 1
	types := []string{workflow.TypeWSDL, workflow.TypeBeanshell, workflow.TypeLocalWorker}
	for i := 0; i < n; i++ {
		w.AddModule(&workflow.Module{Label: randLabel(r), Type: types[r.Intn(len(types))]})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Intn(3) == 0 {
				_ = w.AddEdge(i, j)
			}
		}
	}
	w.Annotations.Title = randLabel(r) + " workflow"
	return w
}

func TestPropertyMeasuresSymmetricBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randWorkflow(r, "a")
		b := randWorkflow(r, "b")
		for _, cfg := range allTopologies() {
			m := NewStructural(cfg)
			ab, err1 := m.Compare(a, b)
			ba, err2 := m.Compare(b, a)
			if err1 != nil || err2 != nil {
				return false
			}
			if math.Abs(ab-ba) > 1e-9 {
				return false
			}
			if ab < -1e-9 || ab > 1+1e-9 {
				return false
			}
			self, err := m.Compare(a, a)
			if err != nil || math.Abs(self-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkModuleSetsCompare(b *testing.B) {
	x, y := keggWorkflow("x"), blastWorkflow("y")
	m := NewStructural(msConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Compare(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPathSetsCompare(b *testing.B) {
	x, y := keggWorkflow("x"), blastWorkflow("y")
	cfg := msConfig()
	cfg.Topology = PathSets
	m := NewStructural(cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Compare(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphEditCompare(b *testing.B) {
	x, y := keggWorkflow("x"), blastWorkflow("y")
	cfg := msConfig()
	cfg.Topology = GraphEdit
	cfg.GEDBeamWidth = 64
	m := NewStructural(cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Compare(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
