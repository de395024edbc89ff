package oracle

import (
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/textutil"
	"repro/internal/workflow"
)

// TestOracleImportsNoKernel: the oracle shares no code with the kernels it
// checks — none of its files imports the engine's measure, module, matching,
// symbol-table or repository-knowledge packages — and no program file
// imports the oracle.
func TestOracleImportsNoKernel(t *testing.T) {
	forbidden := map[string]bool{}
	for _, p := range []string{"measures", "module", "matching", "symtab", "repoknow"} {
		forbidden["repro/internal/"+p] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "../.." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		inOracle := filepath.Dir(path) == "."
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case inOracle && forbidden[p]:
				t.Errorf("%s imports %s", path, p)
			case !inOracle && p == "repro/internal/oracle" && !strings.HasSuffix(path, "_test.go"):
				t.Errorf("program file %s imports the oracle", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLevenshteinMatchesTextbook holds textutil's edit distance, the one
// piece of text comparison the engine and the oracle's Bag of Words share
// a package with, to the textbook dynamic program, and its similarity to the
// oracle's, bit for bit — multi-byte runes and invalid UTF-8 included.
func TestLevenshteinMatchesTextbook(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "b", "c", "A", "_", "é", "ß", "日", "\xff"}
	word := func() string {
		var b strings.Builder
		for n := r.Intn(9); n > 0; n-- {
			b.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		return b.String()
	}
	cases := [][2]string{{"", ""}, {"", "abc"}, {"kitten", "sitting"}, {"flaw", "lawn"}, {"日本", "日"}}
	for i := 0; i < 3000; i++ {
		cases = append(cases, [2]string{word(), word()})
	}
	for _, c := range cases {
		a, b := c[0], c[1]
		if got, want := textutil.Levenshtein(a, b), levenshtein(a, b); got != want {
			t.Fatalf("Levenshtein(%q, %q) = %d, textbook %d", a, b, got, want)
		}
		if a == "" && b == "" {
			continue
		}
		if got, want := textutil.LevenshteinSimilarity(a, b), editSimilarity(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("LevenshteinSimilarity(%q, %q) = %v, oracle %v", a, b, got, want)
		}
	}
}

// TestOracleDefinitions pins the oracle to hand-computed values, so that it
// is checked against the paper and not only against the engine.
func TestOracleDefinitions(t *testing.T) {
	mod := func(label, typ string) *workflow.Module { return &workflow.Module{Label: label, Type: typ} }
	wf := func(ms ...*workflow.Module) *workflow.Workflow {
		w := workflow.New("w")
		w.Modules = ms
		return w
	}
	// pw3 on a label one edit apart (similarity 4/5) and different types.
	x := mod("blast", "wsdl")
	y := mod("blaxt", "soaplabwsdl")
	five := 5.0 // a variable: the expected value rounds as run-time arithmetic does
	if got, want := ModuleSim("pw3", x, y), 3*(1-1/five)/4; got != want {
		t.Errorf("pw3 = %v, want %v", got, want)
	}
	if got := ModuleSim("pll", mod("", "wsdl"), mod("", "rest")); got != 0 {
		t.Errorf("pll with no label on either side = %v, want 0", got)
	}
	// Greedy takes the 0.9 and then only 0.1; the maximum-weight mapping
	// takes 0.8 + 0.8.
	w := [][]float64{{0.9, 0.8}, {0.8, 0.1}}
	if got := greedyTotal(w); got != 0.9+0.1 {
		t.Errorf("greedy total %v, want 1.0", got)
	}
	if got := maxWeightTotal(w); got != 0.8+0.8 {
		t.Errorf("max-weight total %v, want 1.6", got)
	}
	// A local shim is projected away under ip; te keeps the two web
	// services together and the script apart.
	a := wf(mod("fetch", "wsdl"), mod("split", "localworker"))
	b := wf(mod("fetch", "soaplabwsdl"), mod("fetch", "beanshell"))
	for _, c := range []struct {
		m    ModuleSets
		want float64
	}{
		{ModuleSets{Scheme: "plm", Preselect: "te"}, 1.0 / 3},
		{ModuleSets{Scheme: "plm", Preselect: "te", Project: true}, 1.0 / 2},
		{ModuleSets{Scheme: "plm", Preselect: "tm", Project: true}, 0},
		{ModuleSets{Scheme: "plm", Preselect: "ta", NoNorm: true}, 1},
	} {
		if got := c.m.Compare(a, b); got != c.want {
			t.Errorf("%s = %v, want %v", c.m.Name(), got, c.want)
		}
	}
	c := wf(mod("Fetch_Sequence2", "x"), mod("plot", "x"))
	d := wf(mod("fetchsequence", "y"))
	if got := (LabelSets{}).Compare(c, d); got != 0.5 {
		t.Errorf("LS = %v, want 1/2", got)
	}
	if got := (LabelSets{Containment: true}).Compare(c, d); got != 1 {
		t.Errorf("LS-containment = %v, want 1", got)
	}
	if n := len(All()); n != 6*3*2*2*2+5 {
		t.Errorf("All has %d measures", n)
	}
	if m, ok := Lookup("MS_ip_te_pll_greedy_nonorm"); !ok || m != (ModuleSets{Scheme: "pll", Preselect: "te", Project: true, Greedy: true, NoNorm: true}) {
		t.Errorf("Lookup = %v, %v", m, ok)
	}
}
