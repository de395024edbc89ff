// Package oracle is a second, independent definition of the similarity
// measures the engine computes, for tests to hold the engine to. It follows
// the paper's definitions on plain strings (Starlinger et al., PVLDB 2014,
// §2.1–2.2) by brute force: no symbol table, no memo, no score bound, no
// pooled storage, no Hungarian algorithm. It restates the module-comparison
// schemes, the type-equivalence classes and the type-based importance
// projection instead of importing them, and it imports none of the engine's
// measure, module, matching, symbol-table or repository-knowledge packages
// (TestOracleImportsNoKernel), so a fault in one of them cannot hide in both.
// Only tests import it.
//
// It covers Module Sets under every scheme × preselection (ta/tm/te) ×
// projection (np/ip) × mapping (mw/greedy) × normalisation, the label-set
// measure (Jaccard and containment), Bag of Words, Bag of Tags, and ensembles
// of those as the weighted mean of their members. Path Sets and Graph Edit
// are not covered yet.
//
// # Float rule
//
// A module similarity (ModuleSim) must equal the engine's bit for bit: both
// add the scheme's attributes in the same order, and every term is the same
// rounded product. A Module Sets score need not: the greedy mapping's total
// here adds its pairs in the order they are picked, not in row order as the
// engine does, and the exhaustive search for the maximum-weight mapping
// keeps whichever optimum rounding favours, where the engine's matcher may
// settle on another mapping of the same real total, added in another order.
// Two orders of the same k terms, each at most 1, differ by at most about
// 2(k−1)·k·2⁻⁵³ — under 4·10⁻¹³ for k ≤ 40 mapped pairs — and
// normalisation divides by at least 1. Tolerance is set above that; Close
// applies it. Label sets, Bag of Words and Bag of Tags divide two
// exact integer counts, so they must match to the bit.
package oracle

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/textutil"
	"repro/internal/workflow"
)

// Tolerance bounds |got − want| / max(1, |want|) between an engine score and
// the oracle's for a measure with a mapping step (see the float rule above).
const Tolerance = 1e-12

// Close reports whether got is within Tolerance of the oracle's want.
func Close(got, want float64) bool {
	return math.Abs(got-want) <= Tolerance*max(1, math.Abs(want))
}

// Measure is a similarity measure the oracle defines.
type Measure interface {
	// Name is the measure's name in the paper's notation, as the engine
	// renders it.
	Name() string
	// Compare computes the similarity of a and b from their strings.
	Compare(a, b *workflow.Workflow) float64
}

// attribute is one row of a scheme's table: which module attribute, its
// weight, and whether it compares by edit distance (otherwise exactly).
type attribute struct {
	value  func(m *workflow.Module) string
	weight float64
	edit   bool
}

func label(m *workflow.Module) string       { return m.Label }
func moduleType(m *workflow.Module) string  { return m.Type }
func description(m *workflow.Module) string { return m.Description }
func script(m *workflow.Module) string      { return m.Script }
func serviceURI(m *workflow.Module) string  { return m.ServiceURI }
func serviceName(m *workflow.Module) string { return m.ServiceName }
func authority(m *workflow.Module) string   { return m.Authority }

// params renders a module's static parameters as "k=v" pairs in key order,
// joined by ";" — the value the Galaxy scheme compares.
func params(m *workflow.Module) string {
	keys := make([]string, 0, len(m.Params))
	for k := range m.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + m.Params[k]
	}
	return strings.Join(parts, ";")
}

// schemes are the paper's module-comparison schemes (§2.1.1, §5.3), each
// attribute in the order the engine adds it.
var schemes = map[string][]attribute{
	// pw0: uniform weights; type and the web-service properties exactly,
	// labels, descriptions and scripts by edit distance.
	"pw0": {
		{moduleType, 1, false}, {authority, 1, false}, {serviceName, 1, false}, {serviceURI, 1, false},
		{label, 1, true}, {description, 1, true}, {script, 1, true},
	},
	// pw3: the same attributes, tuned weights.
	"pw3": {
		{label, 3, true}, {script, 3, true}, {serviceURI, 3, false}, {serviceName, 2, false},
		{authority, 1, false}, {moduleType, 1, false}, {description, 1, true},
	},
	"pll": {{label, 1, true}},
	"plm": {{label, 1, false}},
	// gw1: Galaxy labels and tool parameters by edit distance, tool type
	// and tool id exactly.
	"gw1": {{label, 1, true}, {moduleType, 1, false}, {serviceName, 1, false}, {params, 1, true}},
	"gll": {{label, 1, true}},
}

// Schemes returns the names of the module-comparison schemes, sorted.
func Schemes() []string {
	names := make([]string, 0, len(schemes))
	for name := range schemes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ModuleSim is the module similarity of a and b under the named scheme: the
// weighted mean of the attribute similarities over the attributes nonempty
// on at least one side. It panics on an unknown scheme.
func ModuleSim(scheme string, a, b *workflow.Module) float64 {
	table, ok := schemes[scheme]
	if !ok {
		panic(fmt.Sprintf("oracle: unknown scheme %q", scheme))
	}
	var sum, wsum float64
	for _, at := range table {
		va, vb := at.value(a), at.value(b)
		if va == "" && vb == "" {
			continue
		}
		sim := 0.0
		switch {
		case va == vb:
			sim = 1
		case at.edit:
			sim = editSimilarity(va, vb)
		}
		sum += at.weight * sim
		wsum += at.weight
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// editSimilarity is 1 − d/max(|a|, |b|) for the Levenshtein distance d, in
// runes; the caller never passes two empty strings.
func editSimilarity(a, b string) float64 {
	longest := max(utf8.RuneCountInString(a), utf8.RuneCountInString(b))
	return 1 - float64(levenshtein(a, b))/float64(longest)
}

// levenshtein is the textbook dynamic program for the edit distance of a and
// b in runes: d[i][j] is the distance between the first i runes of a and the
// first j of b.
func levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	d := make([][]int, len(ra)+1)
	for i := range d {
		d[i] = make([]int, len(rb)+1)
		d[i][0] = i
	}
	for j := range d[0] {
		d[0][j] = j
	}
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			sub := d[i-1][j-1]
			if ra[i-1] != rb[j-1] {
				sub++
			}
			d[i][j] = min(d[i-1][j]+1, d[i][j-1]+1, sub)
		}
	}
	return d[len(ra)][len(rb)]
}

// typeClass is the type-equivalence class of a module type (§2.1.5, after
// Wassink et al.): the many spellings of web services are one class.
func typeClass(typ string) string {
	switch typ {
	case "wsdl", "arbitrarywsdl", "soaplabwsdl", "biomobywsdl", "rest":
		return "webservice"
	case "beanshell", "rshell", "script":
		return "script"
	case "localworker", "stringconstant", "xmlsplitter", "xmlmerger":
		return "local"
	case "dataflow", "tool":
		return typ
	}
	return "other"
}

// allows reports whether a preselection (ta, tm, te) admits the module pair.
func allows(preselect string, a, b *workflow.Module) bool {
	switch preselect {
	case "ta":
		return true
	case "tm":
		return a.Type == b.Type
	case "te":
		return typeClass(a.Type) == typeClass(b.Type)
	}
	panic(fmt.Sprintf("oracle: unknown preselection %q", preselect))
}

// important is the type-based importance projection's module set: a
// workflow's modules but its local shim operations, or all of them when
// nothing else is left. Module Sets ignores edges, so the set is all of the
// projection it needs.
func important(w *workflow.Workflow) []*workflow.Module {
	var keep []*workflow.Module
	for _, m := range w.Modules {
		if typeClass(m.Type) != "local" {
			keep = append(keep, m)
		}
	}
	if len(keep) == 0 {
		return w.Modules
	}
	return keep
}

// ModuleSets is simMS (§2.1.2–2.1.4): the total similarity of a one-to-one
// mapping of the two workflows' modules, normalised by the similarity
// Jaccard nnsim / (|V1| + |V2| − nnsim).
type ModuleSets struct {
	Scheme    string // pw0, pw3, pll, plm, gw1 or gll
	Preselect string // ta, tm or te
	Project   bool   // ip: compare the type-based importance projections
	Greedy    bool   // the greedy mapping instead of the maximum-weight one
	NoNorm    bool   // the raw total nnsim
}

// Name implements Measure: MS_{ip|np}_{ta|tm|te}_{scheme}[_greedy][_nonorm].
func (ms ModuleSets) Name() string {
	proj := "np"
	if ms.Project {
		proj = "ip"
	}
	name := "MS_" + proj + "_" + ms.Preselect + "_" + ms.Scheme
	if ms.Greedy {
		name += "_greedy"
	}
	if ms.NoNorm {
		name += "_nonorm"
	}
	return name
}

// Compare implements Measure.
func (ms ModuleSets) Compare(a, b *workflow.Workflow) float64 {
	va, vb := a.Modules, b.Modules
	if ms.Project {
		va, vb = important(a), important(b)
	}
	if len(va) == 0 || len(vb) == 0 {
		return 0
	}
	w := make([][]float64, len(va))
	for i, x := range va {
		w[i] = make([]float64, len(vb))
		for j, y := range vb {
			if allows(ms.Preselect, x, y) {
				w[i][j] = ModuleSim(ms.Scheme, x, y)
			}
		}
	}
	var nnsim float64
	if ms.Greedy {
		nnsim = greedyTotal(w)
	} else {
		nnsim = maxWeightTotal(w)
	}
	if ms.NoNorm {
		return nnsim
	}
	return nnsim / (float64(len(va)) + float64(len(vb)) - nnsim)
}

// maxWeightTotal is the largest total weight of any one-to-one mapping of
// w's rows to its columns, by exhaustive search over the sets of columns the
// rows before the current one took: best[used] is the largest total of a
// mapping of those rows onto exactly the columns in used, and each row is
// either left out or mapped to a column not in used. That is rows ×
// 2^columns states, so the columns are the smaller side.
func maxWeightTotal(w [][]float64) float64 {
	if len(w[0]) > len(w) {
		t := make([][]float64, len(w[0]))
		for j := range t {
			t[j] = make([]float64, len(w))
			for i := range w {
				t[j][i] = w[i][j]
			}
		}
		w = t
	}
	cols := len(w[0])
	if cols > 16 {
		panic("oracle: maximum-weight mapping over more than 16 modules a side")
	}
	best, next := make([]float64, 1<<cols), make([]float64, 1<<cols)
	for used := range best {
		best[used] = math.Inf(-1) // no mapping uses these columns yet
	}
	best[0] = 0
	for _, row := range w {
		copy(next, best) // the row left out
		for used, total := range best {
			if math.IsInf(total, -1) {
				continue
			}
			for j, x := range row {
				if bit := 1 << j; used&bit == 0 {
					next[used|bit] = max(next[used|bit], total+x)
				}
			}
		}
		best, next = next, best
	}
	return slices.Max(best)
}

// greedyTotal is the total weight of the greedy mapping: repeatedly the
// heaviest pair whose row and column are both free, ties to the lower row,
// then the lower column; pairs of weight 0 are never mapped.
func greedyTotal(w [][]float64) float64 {
	type pair struct {
		i, j int
		w    float64
	}
	var pairs []pair
	for i := range w {
		for j, x := range w[i] {
			if x > 0 {
				pairs = append(pairs, pair{i, j, x})
			}
		}
	}
	sort.Slice(pairs, func(x, y int) bool {
		p, q := pairs[x], pairs[y]
		if p.w != q.w {
			return p.w > q.w
		}
		if p.i != q.i {
			return p.i < q.i
		}
		return p.j < q.j
	})
	rowUsed, colUsed := map[int]bool{}, map[int]bool{}
	var total float64
	for _, p := range pairs {
		if !rowUsed[p.i] && !colUsed[p.j] {
			rowUsed[p.i], colUsed[p.j] = true, true
			total += p.w
		}
	}
	return total
}

// canonicalLabel folds a label's styling away: its ASCII letters, lowercased,
// and digits, every other byte dropped, then trailing digits (version
// suffixes) dropped.
func canonicalLabel(l string) string {
	var b strings.Builder
	for i := 0; i < len(l); i++ {
		switch c := l[i]; {
		case c >= 'A' && c <= 'Z':
			b.WriteByte(c - 'A' + 'a')
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			b.WriteByte(c)
		}
	}
	return strings.TrimRight(b.String(), "0123456789")
}

// LabelSets compares the sets of canonical module labels: their Jaccard
// index, or with Containment |A ∩ B| / min(|A|, |B|). Empty sets score 0.
type LabelSets struct{ Containment bool }

// Name implements Measure.
func (l LabelSets) Name() string {
	if l.Containment {
		return "LS-containment"
	}
	return "LS"
}

// Compare implements Measure.
func (l LabelSets) Compare(a, b *workflow.Workflow) float64 {
	sa, sb := map[string]bool{}, map[string]bool{}
	for _, m := range a.Modules {
		if c := canonicalLabel(m.Label); c != "" {
			sa[c] = true
		}
	}
	for _, m := range b.Modules {
		if c := canonicalLabel(m.Label); c != "" {
			sb[c] = true
		}
	}
	shared := overlap(sa, sb)
	den := len(sa) + len(sb) - shared
	if l.Containment {
		den = min(len(sa), len(sb))
	}
	if den == 0 {
		return 0
	}
	return float64(shared) / float64(den)
}

// BagOfWords is simBW (§2.2): the Jaccard index of the token sets of the
// title and description, tokenized as textutil.TokenSet does.
type BagOfWords struct{}

// Name implements Measure.
func (BagOfWords) Name() string { return "BW" }

// Compare implements Measure.
func (BagOfWords) Compare(a, b *workflow.Workflow) float64 {
	words := func(w *workflow.Workflow) map[string]bool {
		return textutil.TokenSet(w.Annotations.Title + " " + w.Annotations.Description)
	}
	return jaccard(words(a), words(b))
}

// BagOfTags is simBT (§2.2): the Jaccard index of the keyword tag sets,
// tags trimmed and lowercased.
type BagOfTags struct{}

// Name implements Measure.
func (BagOfTags) Name() string { return "BT" }

// Compare implements Measure.
func (BagOfTags) Compare(a, b *workflow.Workflow) float64 {
	tags := func(w *workflow.Workflow) map[string]bool {
		set := map[string]bool{}
		for _, t := range w.Annotations.Tags {
			if t = strings.ToLower(strings.TrimSpace(t)); t != "" {
				set[t] = true
			}
		}
		return set
	}
	return jaccard(tags(a), tags(b))
}

// overlap is |a ∩ b|.
func overlap(a, b map[string]bool) int {
	n := 0
	for k := range a {
		if b[k] {
			n++
		}
	}
	return n
}

// jaccard is |a ∩ b| / |a ∪ b|, 0 for two empty sets.
func jaccard(a, b map[string]bool) float64 {
	shared := overlap(a, b)
	union := len(a) + len(b) - shared
	if union == 0 {
		return 0
	}
	return float64(shared) / float64(union)
}

// Ensemble is the weighted mean of its members' scores (§5.1.6).
type Ensemble struct {
	Members []Measure
	Weights []float64
}

// Name implements Measure: ENS(m1+m2+...).
func (e Ensemble) Name() string {
	names := make([]string, len(e.Members))
	for i, m := range e.Members {
		names[i] = m.Name()
	}
	return "ENS(" + strings.Join(names, "+") + ")"
}

// Compare implements Measure.
func (e Ensemble) Compare(a, b *workflow.Workflow) float64 {
	var sum, wsum float64
	for i, m := range e.Members {
		sum += e.Weights[i] * m.Compare(a, b)
		wsum += e.Weights[i]
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// All returns every measure the oracle covers: Module Sets in every
// configuration, both label-set measures, Bag of Words, Bag of Tags, and the
// paper's best ensemble, BW with MS_ip_te_pll at equal weights.
func All() []Measure {
	var out []Measure
	for _, scheme := range Schemes() {
		for _, pre := range []string{"ta", "tm", "te"} {
			for _, project := range []bool{false, true} {
				for _, greedy := range []bool{false, true} {
					for _, nonorm := range []bool{false, true} {
						out = append(out, ModuleSets{Scheme: scheme, Preselect: pre, Project: project, Greedy: greedy, NoNorm: nonorm})
					}
				}
			}
		}
	}
	return append(out, LabelSets{}, LabelSets{Containment: true}, BagOfWords{}, BagOfTags{},
		Ensemble{Members: []Measure{BagOfWords{}, ModuleSets{Scheme: "pll", Preselect: "te", Project: true}}, Weights: []float64{1, 1}})
}

// Lookup returns the measure of All named name.
func Lookup(name string) (Measure, bool) {
	for _, m := range All() {
		if m.Name() == name {
			return m, true
		}
	}
	return nil, false
}
