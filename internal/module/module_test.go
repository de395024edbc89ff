package module

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matching"
	"repro/internal/symtab"
	"repro/internal/workflow"
)

// resolve interns the attributes of every workflow's modules into one fresh
// symbol table, as ingest does: the kernels read symbols only, and only ever
// see modules of workflows one table resolved.
func resolve(ws ...*workflow.Workflow) {
	tab := symtab.New()
	for _, w := range ws {
		w.Resolve(tab)
	}
}

// resolved returns ms, their attributes interned into one fresh table.
func resolved(ms ...*workflow.Module) []*workflow.Module {
	w := workflow.New("modules")
	w.Modules = ms
	resolve(w)
	return ms
}

func wsModule(label, uri, svc, auth string) *workflow.Module {
	return &workflow.Module{
		Label: label, Type: workflow.TypeWSDL,
		ServiceURI: uri, ServiceName: svc, Authority: auth,
	}
}

func TestSchemeIdenticalModules(t *testing.T) {
	m := resolved(wsModule("getPathway", "http://soap.genome.jp/KEGG.wsdl", "get_pathway", "kegg"))[0]
	for _, s := range []Scheme{PW0(), PW3(), PLL(), PLM(), GW1(), GLL()} {
		if got := s.SimilarityMemo(m, m, nil); got != 1 {
			t.Errorf("%s self-similarity = %v, want 1", s.Name, got)
		}
	}
}

func TestSchemeRange(t *testing.T) {
	ms := resolved(wsModule("getPathway", "http://a", "op1", "x"), &workflow.Module{Label: "split_string", Type: workflow.TypeLocalWorker})
	for _, s := range []Scheme{PW0(), PW3(), PLL(), PLM()} {
		got := s.SimilarityMemo(ms[0], ms[1], nil)
		if got < 0 || got > 1 {
			t.Errorf("%s similarity out of range: %v", s.Name, got)
		}
	}
}

func TestPLMStrictVsPLLGraded(t *testing.T) {
	ms := resolved(&workflow.Module{Label: "getPathways"}, &workflow.Module{Label: "getPathway"}) // one char off
	a, b := ms[0], ms[1]
	if got := PLM().SimilarityMemo(a, b, nil); got != 0 {
		t.Errorf("plm on near-identical labels = %v, want 0 (strict)", got)
	}
	if got := PLL().SimilarityMemo(a, b, nil); got <= 0.8 {
		t.Errorf("pll on near-identical labels = %v, want > 0.8", got)
	}
}

func TestAbsentAttributesNotPenalised(t *testing.T) {
	// Two local modules with identical labels: under pw0 the web-service
	// attributes are absent from both and must not drag similarity down.
	ms := resolved(&workflow.Module{Label: "mergeLists", Type: workflow.TypeLocalWorker}, &workflow.Module{Label: "mergeLists", Type: workflow.TypeLocalWorker})
	if got := PW0().SimilarityMemo(ms[0], ms[1], nil); got != 1 {
		t.Errorf("pw0 on identical local modules = %v, want 1", got)
	}
}

func TestAttributePresentOnOneSideCounts(t *testing.T) {
	// One module has a script, the other doesn't: the script attribute is
	// present in the union and must contribute a mismatch.
	ms := resolved(&workflow.Module{Label: "x", Type: workflow.TypeBeanshell, Script: "return 1;"}, &workflow.Module{Label: "x", Type: workflow.TypeBeanshell})
	got := PW0().SimilarityMemo(ms[0], ms[1], nil)
	if got >= 1 {
		t.Errorf("similarity = %v, want < 1 (script mismatch)", got)
	}
	if got <= 0 {
		t.Errorf("similarity = %v, want > 0 (labels+types match)", got)
	}
}

func TestPW3WeightsLabelHigher(t *testing.T) {
	// Same label, different type: pw3 weighs the label (3) against type (1),
	// pw0 weighs them equally, so pw3 must score higher.
	ms := resolved(&workflow.Module{Label: "BLAST", Type: workflow.TypeWSDL}, &workflow.Module{Label: "BLAST", Type: workflow.TypeSoaplabWSDL})
	if pw3, pw0 := PW3().SimilarityMemo(ms[0], ms[1], nil), PW0().SimilarityMemo(ms[0], ms[1], nil); pw3 <= pw0 {
		t.Errorf("pw3=%v should exceed pw0=%v when labels agree but type differs", pw3, pw0)
	}
}

func TestSchemeByName(t *testing.T) {
	for _, name := range []string{"pw0", "pw3", "pll", "plm", "gw1", "gll"} {
		s, ok := SchemeByName(name)
		if !ok || s.Name != name {
			t.Errorf("SchemeByName(%q) = %v, %v", name, s.Name, ok)
		}
	}
	if _, ok := SchemeByName("nope"); ok {
		t.Error("unknown scheme resolved")
	}
}

func TestComparators(t *testing.T) {
	ms := resolved(&workflow.Module{Label: "a"}, &workflow.Module{Label: "a"}, &workflow.Module{Label: "A"}, &workflow.Module{Label: "ab"})
	label := func(c Comparator) Scheme {
		return Scheme{Name: c.String(), Specs: []AttributeSpec{{workflow.AttrLabel, 1, c}}}
	}
	if exact := label(Exact); exact.SimilarityMemo(ms[0], ms[1], nil) != 1 || exact.SimilarityMemo(ms[0], ms[2], nil) != 0 || exact.SimilarityMemo(ms[0], ms[3], nil) != 0 {
		t.Error("Exact misbehaves")
	}
	if edit := label(EditDistance); edit.SimilarityMemo(ms[0], ms[1], nil) != 1 || edit.SimilarityMemo(ms[0], ms[3], nil) != 0.5 {
		t.Error("EditDistance misbehaves")
	}
}

func TestClassOf(t *testing.T) {
	cases := map[string]TypeClass{
		workflow.TypeWSDL:          ClassWebService,
		workflow.TypeArbitraryWSDL: ClassWebService,
		workflow.TypeSoaplabWSDL:   ClassWebService,
		workflow.TypeBioMoby:       ClassWebService,
		workflow.TypeRESTService:   ClassWebService,
		workflow.TypeBeanshell:     ClassScript,
		workflow.TypeRShell:        ClassScript,
		workflow.TypeLocalWorker:   ClassLocal,
		workflow.TypeStringConst:   ClassLocal,
		workflow.TypeDataflow:      ClassDataflow,
		workflow.TypeTool:          ClassTool,
		"somethingelse":            ClassOther,
	}
	for typ, want := range cases {
		if got := ClassOf(typ); got != want {
			t.Errorf("ClassOf(%q) = %v, want %v", typ, got, want)
		}
	}
}

func TestPreselectAllows(t *testing.T) {
	ms := resolved(&workflow.Module{Type: workflow.TypeWSDL}, &workflow.Module{Type: workflow.TypeSoaplabWSDL}, &workflow.Module{Type: workflow.TypeLocalWorker})
	wsdl, soaplab, local := ms[0], ms[1], ms[2]

	if !AllPairs.Allows(wsdl, local) {
		t.Error("ta must allow everything")
	}
	if TypeMatch.Allows(wsdl, soaplab) {
		t.Error("tm must reject wsdl vs soaplabwsdl")
	}
	if !TypeMatch.Allows(wsdl, wsdl) {
		t.Error("tm must allow identical types")
	}
	if !TypeEquivalence.Allows(wsdl, soaplab) {
		t.Error("te must allow wsdl vs soaplabwsdl (same class)")
	}
	if TypeEquivalence.Allows(wsdl, local) {
		t.Error("te must reject webservice vs local")
	}
}

func TestWeightMatrixStats(t *testing.T) {
	a := workflow.New("a")
	a.AddModule(wsModule("get", "u1", "s1", "auth"))
	a.AddModule(&workflow.Module{Label: "split", Type: workflow.TypeLocalWorker})
	b := workflow.New("b")
	b.AddModule(wsModule("get", "u1", "s1", "auth"))
	b.AddModule(&workflow.Module{Label: "merge", Type: workflow.TypeLocalWorker})
	b.AddModule(&workflow.Module{Label: "sh", Type: workflow.TypeBeanshell, Script: "x"})
	resolve(a, b)

	w, st := WeightMatrix(a, b, PW0(), TypeEquivalence)
	if st.Total != 6 {
		t.Errorf("Total = %d, want 6", st.Total)
	}
	// Admitted: ws-ws (1), local-local (1); rejected: ws-local, ws-script,
	// local-ws, local-script.
	if st.Compared != 2 {
		t.Errorf("Compared = %d, want 2", st.Compared)
	}
	if w[0][0] != 1 {
		t.Errorf("identical ws modules weight = %v, want 1", w[0][0])
	}
	if w[0][1] != 0 || w[0][2] != 0 {
		t.Error("excluded pairs must have weight 0")
	}
}

func TestPreselectString(t *testing.T) {
	if AllPairs.String() != "ta" || TypeMatch.String() != "tm" || TypeEquivalence.String() != "te" {
		t.Error("Preselect notation tokens wrong")
	}
}

func randModule(r *rand.Rand) *workflow.Module {
	types := []string{
		workflow.TypeWSDL, workflow.TypeSoaplabWSDL, workflow.TypeBeanshell,
		workflow.TypeLocalWorker, workflow.TypeStringConst, "weird",
	}
	labels := []string{"getPathway", "get_pathway", "BLAST", "split", "merge", ""}
	params := []map[string]string{nil, {"db": "nr"}, {"db": "pdb"}, {"db": "nr", "evalue": "10"}}
	return &workflow.Module{
		Label:       labels[r.Intn(len(labels))],
		Type:        types[r.Intn(len(types))],
		Description: []string{"", "fetch a pathway", "fetch pathways", "align sequences"}[r.Intn(4)],
		Script:      []string{"", "return x;", "return y;"}[r.Intn(3)],
		ServiceURI:  []string{"", "http://a", "http://b"}[r.Intn(3)],
		ServiceName: []string{"", "get_pathway", "blastp"}[r.Intn(3)],
		Authority:   []string{"", "kegg", "ebi"}[r.Intn(3)],
		Params:      params[r.Intn(len(params))],
	}
}

func TestPropertySchemeSymmetricBounded(t *testing.T) {
	schemes := []Scheme{PW0(), PW3(), PLL(), PLM(), GW1(), GLL()}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ms := resolved(randModule(r), randModule(r))
		a, b := ms[0], ms[1]
		for _, s := range schemes {
			sab, sba := s.SimilarityMemo(a, b, nil), s.SimilarityMemo(b, a, nil)
			if sab != sba {
				return false
			}
			if sab < 0 || sab > 1 {
				return false
			}
			// Self-similarity must be 1 whenever the scheme sees at
			// least one non-empty attribute on the module.
			seesValue := false
			for _, spec := range s.Specs {
				if a.Value(spec.Attr) != "" {
					seesValue = true
					break
				}
			}
			if seesValue && s.SimilarityMemo(a, a, nil) < 1-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPW0Similarity(b *testing.B) {
	ms := resolved(wsModule("getKEGGPathway", "http://soap.genome.jp/KEGG.wsdl", "get_pathway", "kegg"),
		wsModule("get_pathway_by_gene", "http://soap.genome.jp/KEGG.wsdl", "get_pathways_by_genes", "kegg"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PW0().SimilarityMemo(ms[0], ms[1], nil)
	}
}

func BenchmarkWeightMatrix12x12(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	wa, wb := workflow.New("a"), workflow.New("b")
	for i := 0; i < 12; i++ {
		wa.AddModule(randModule(r))
		wb.AddModule(randModule(r))
	}
	resolve(wa, wb)
	s := PW0()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WeightMatrix(wa, wb, s, AllPairs)
	}
}

func typedWorkflow(id string, types ...string) *workflow.Workflow {
	w := workflow.New(id)
	for _, typ := range types {
		w.AddModule(&workflow.Module{Label: "step", Type: typ})
	}
	return w
}

// TestClassesAreCachedPerWorkflow: the class summary is built once, kept on
// the workflow, and dropped when the workflow changes — through AddModule or
// behind its back.
func TestClassesAreCachedPerWorkflow(t *testing.T) {
	w := typedWorkflow("w", workflow.TypeWSDL, workflow.TypeSoaplabWSDL, workflow.TypeBeanshell)
	if w.ModuleClasses() != nil {
		t.Fatal("a workflow nothing compared carries a class summary")
	}
	c := Classes(w)
	if c.Count[ClassWebService] != 2 || c.Count[ClassScript] != 1 || TypeClass(c.Of[2]) != ClassScript {
		t.Errorf("classes = %+v", c)
	}
	if Classes(w) != c {
		t.Error("second call rebuilt the summary")
	}
	w.AddModule(&workflow.Module{Type: workflow.TypeTool})
	if c2 := Classes(w); c2 == c || c2.Count[ClassTool] != 1 || len(c2.Of) != 4 {
		t.Errorf("summary after AddModule = %+v", c2)
	}
	w.Modules = append(w.Modules, &workflow.Module{Type: workflow.TypeTool})
	if c3 := Classes(w); len(c3.Of) != 5 || c3.Count[ClassTool] != 2 {
		t.Errorf("summary after a direct append = %+v", c3)
	}
}

func TestMatchCap(t *testing.T) {
	a := typedWorkflow("a", workflow.TypeWSDL, workflow.TypeSoaplabWSDL, workflow.TypeRESTService, workflow.TypeBeanshell, "custom")
	b := typedWorkflow("b", workflow.TypeWSDL, workflow.TypeRShell, workflow.TypeScript, workflow.TypeTool)
	for p, want := range map[Preselect]int{AllPairs: 4, TypeMatch: 2, TypeEquivalence: 2} {
		if got := p.MatchCap(Classes(a), Classes(b)); got != want {
			t.Errorf("%s: cap %d, want %d", p, got, want)
		}
		if got := p.MatchCap(Classes(b), Classes(a)); got != want {
			t.Errorf("%s, swapped: cap %d, want %d", p, got, want)
		}
	}
}

// TestMatchBoundDominatesEveryMatching: the matrix bound is at least the
// total of the maximum-weight and of the greedy matching, and is as tight as
// the smaller side allows when one row (or column) holds all the weight.
func TestMatchBoundDominatesEveryMatching(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	labels := []string{"fetch", "fetch_sequence", "blast", "blastp", "align", "a", "ab"}
	types := []string{workflow.TypeWSDL, workflow.TypeBeanshell, workflow.TypeLocalWorker}
	build := func(id string) *workflow.Workflow {
		w := workflow.New(id)
		for i, n := 0, 1+r.Intn(12); i < n; i++ {
			w.AddModule(&workflow.Module{Label: labels[r.Intn(len(labels))], Type: types[r.Intn(len(types))]})
		}
		return w
	}
	for i := 0; i < 200; i++ {
		a, b := build("a"), build("b")
		resolve(a, b)
		for _, p := range []Preselect{AllPairs, TypeMatch, TypeEquivalence} {
			mx := AcquireMatrix(a, b, PLL(), p, nil, RowStop{})
			bound := mx.MatchBound()
			if mw, gr := matching.MaxWeightTotal(mx.W), matching.Greedy(mx.W).TotalWeight(); bound < mw || bound < gr {
				t.Fatalf("pair %d, %s: bound %v below max-weight %v or greedy %v", i, p, bound, mw, gr)
			}
			mx.Release()
		}
	}
	one := typedWorkflow("one", workflow.TypeWSDL)
	many := typedWorkflow("many", workflow.TypeWSDL, workflow.TypeWSDL, workflow.TypeWSDL)
	resolve(one, many)
	for _, pair := range [][2]*workflow.Workflow{{one, many}, {many, one}} {
		mx := AcquireMatrix(pair[0], pair[1], PLL(), AllPairs, nil, RowStop{})
		if got := mx.MatchBound(); got < 1 || got > 1+1e-12 {
			t.Errorf("%d x %d identical modules: bound %v, want 1", pair[0].Size(), pair[1].Size(), got)
		}
		mx.Release()
	}
}
