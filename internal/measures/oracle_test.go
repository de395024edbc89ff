package measures

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/module"
	"repro/internal/oracle"
	"repro/internal/repoknow"
	"repro/internal/workflow"
)

// underTest returns the package's measure for the oracle's om: the parsed
// notation, with the type-based importance projection for ip, or the
// label-set measure, or the ensemble of the members' measures.
func underTest(t testing.TB, om oracle.Measure, project Projector) Measure {
	t.Helper()
	switch om := om.(type) {
	case oracle.LabelSets:
		return LabelSets{Containment: om.Containment}
	case oracle.Ensemble:
		members := make([]Measure, len(om.Members))
		for i, m := range om.Members {
			members[i] = underTest(t, m, project)
		}
		return NewWeightedEnsemble(members, om.Weights)
	}
	m, err := Parse(om.Name(), ParseOptions{Project: project})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// oracleCase is one measure of the oracle beside the package's.
type oracleCase struct {
	want  oracle.Measure
	m     Measure
	exact bool // no mapping step: the scores must match to the bit
}

func oracleCases(t testing.TB) []oracleCase {
	project := repoknow.NewProjector(repoknow.TypeScorer{}, 0.5).Project
	var cases []oracleCase
	for _, om := range oracle.All() {
		m := underTest(t, om, project)
		if m.Name() != om.Name() {
			t.Fatalf("the oracle's %s is the package's %s", om.Name(), m.Name())
		}
		_, ms := om.(oracle.ModuleSets)
		_, ens := om.(oracle.Ensemble)
		cases = append(cases, oracleCase{want: om, m: m, exact: !ms && !ens})
	}
	return cases
}

// checkOracle holds every case to the oracle on the ordered pair (a, b): the
// measure's Compare, and — when one symbol table resolved both, as in a
// scan — its scan-specialised form (projection hoisted, memo installed),
// which must return Compare's bits.
func checkOracle(cases []oracleCase, a, b *workflow.Workflow) error {
	var memo *module.SimMemo // one per table, as an engine owns one
	if t := a.SymtabRef(); t != nil && b.ResolvedBy(t) {
		memo = module.NewSimMemo()
	}
	for _, c := range cases {
		want := c.want.Compare(a, b)
		got, err := c.m.Compare(a, b)
		if err != nil {
			return err
		}
		if c.exact && math.Float64bits(got) != math.Float64bits(want) || !oracle.Close(got, want) {
			return fmt.Errorf("%s = %v, oracle %v (Δ %.3g)", c.m.Name(), got, want, got-want)
		}
		sp, ok := c.m.(Specialisable)
		if memo == nil || !ok {
			continue
		}
		project, inner := sp.Specialise(memo)
		pa, pb := a, b
		if project != nil {
			pa, pb = project(a), project(b)
		}
		scan, err := inner.Compare(pa, pb)
		if err != nil {
			return err
		}
		if math.Float64bits(scan) != math.Float64bits(got) {
			return fmt.Errorf("%s specialised = %v, Compare %v", c.m.Name(), scan, got)
		}
	}
	return nil
}

// tavernaPairs are FuzzMeasuresMatchOracle's generated inputs: 40 pairs of
// Taverna workflows of at most 12 modules from one seeded corpus, the first
// 20 of neighbours (mostly one cluster), the rest from far apart; every
// other pair is unresolved clones.
var tavernaPairs = sync.OnceValues(func() ([][2]*workflow.Workflow, error) {
	p := gen.Taverna()
	p.Workflows, p.Clusters = 120, 12
	c, err := gen.Generate(p, 1)
	if err != nil {
		return nil, err
	}
	var small []*workflow.Workflow
	for _, w := range c.Repo.Snapshot().Workflows() {
		if w.Size() <= 12 {
			small = append(small, w)
		}
	}
	if len(small) < 40 {
		return nil, fmt.Errorf("%d generated workflows of at most 12 modules, want 40", len(small))
	}
	pairs := make([][2]*workflow.Workflow, 40)
	for i := range pairs {
		a, b := small[i], small[i+1]
		if i >= 20 {
			b = small[len(small)-1-i]
		}
		if i%2 == 1 {
			a, b = a.Clone(), b.Clone()
		}
		pairs[i] = [2]*workflow.Workflow{a, b}
	}
	return pairs, nil
})

// FuzzMeasuresMatchOracle holds the package's measures to the oracle's string
// definitions: Module Sets under every scheme × preselection × np/ip × mapping
// × normalisation, both label-set measures, BW, BT and the BW + MS_ip_te_pll
// ensemble, in both argument orders, on random workflows of at most 8
// modules, resolved by one table or by none (fuzzWorkflows), and on
// generated Taverna pairs (pair in 1..40, the seed corpus; any other value
// takes the random workflows).
func FuzzMeasuresMatchOracle(f *testing.F) {
	for i := 1; i <= 40; i++ {
		f.Add([]byte{}, i)
	}
	f.Add([]byte{}, 0)
	f.Add([]byte{0x83, 0, 5, 1, 1, 6, 2, 5, 4, 3, 2, 5, 0, 3, 6, 0, 6, 4, 0}, 0)
	f.Add([]byte{6, 0, 0, 0, 5, 1, 0, 8, 2, 0, 12, 3, 0, 13, 4, 0, 15, 5, 0, 1, 6, 0xff, 2, 7, 0xff}, 0)
	f.Add([]byte{0x84, 0, 5, 0x7b, 1, 6, 0x6e, 5, 9, 0x1b, 9, 10, 0x05, 0, 5, 0x7a, 3, 6, 0x2e, 6, 9, 0x1f, 9, 11, 0x44}, 0)
	f.Add([]byte{0x88, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 6, 0, 6, 7, 0, 7, 8,
		0, 8, 9, 0, 9, 10, 0, 10, 11, 0, 11, 12, 0, 0, 13, 0, 1, 14, 0, 2, 15, 0, 3, 16}, 0)
	pairs, err := tavernaPairs()
	if err != nil {
		f.Fatal(err)
	}
	cases := oracleCases(f)
	f.Fuzz(func(t *testing.T, data []byte, pair int) {
		var a, b *workflow.Workflow
		if pair >= 1 && pair <= len(pairs) {
			a, b = pairs[pair-1][0], pairs[pair-1][1]
		} else {
			a, b = fuzzWorkflows(data, 8)
		}
		if err := checkOracle(cases, a, b); err != nil {
			t.Fatalf("(a, b): %v", err)
		}
		if err := checkOracle(cases, b, a); err != nil {
			t.Fatalf("(b, a): %v", err)
		}
	})
}
