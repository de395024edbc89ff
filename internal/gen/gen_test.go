package gen

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/measures"
	"repro/internal/module"
	"repro/internal/workflow"
)

func smallProfile() Profile {
	p := Taverna()
	p.Workflows = 120
	p.Clusters = 8
	return p
}

func TestGenerateDeterministic(t *testing.T) {
	c1, err := Generate(smallProfile(), 42)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Generate(smallProfile(), 42)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := c1.Repo.Snapshot(), c2.Repo.Snapshot()
	if s1.Size() != s2.Size() {
		t.Fatalf("sizes differ: %d vs %d", s1.Size(), s2.Size())
	}
	for _, wf1 := range s1.Workflows() {
		wf2 := s2.Get(wf1.ID)
		if wf2 == nil {
			t.Fatalf("workflow %s missing in second run", wf1.ID)
		}
		if wf1.Size() != wf2.Size() || wf1.EdgeCount() != wf2.EdgeCount() {
			t.Fatalf("workflow %s differs across runs", wf1.ID)
		}
		if wf1.Annotations.Title != wf2.Annotations.Title {
			t.Fatalf("title of %s differs across runs", wf1.ID)
		}
	}
}

// TestGenerateRejectsBadProfiles: a profile Generate cannot build is an error
// naming the field, not a hang (fewer workflows than clusters) or a panic
// inside the random draws.
func TestGenerateRejectsBadProfiles(t *testing.T) {
	cases := []struct {
		field string
		edit  func(*Profile)
	}{
		{"Workflows", func(p *Profile) { p.Workflows = 30 }}, // Taverna has 48 clusters
		{"Clusters", func(p *Profile) { p.Clusters = 0 }},
		{"Clusters", func(p *Profile) { p.Clusters = -3 }},
		{"CoreMin", func(p *Profile) { p.CoreMin, p.CoreMax = 0, 0 }},
		{"CoreMax", func(p *Profile) { p.CoreMax = p.CoreMin - 1 }},
		{"MaxMutations", func(p *Profile) { p.MaxMutations = 0 }},
	}
	for _, tc := range cases {
		p := Taverna()
		tc.edit(&p)
		_, err := Generate(p, 1)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Generate(%+v) = %v, want an error naming %s", tc.field, p, err, tc.field)
		}
	}
	// One workflow per cluster never mutates, so it needs no mutation depth.
	p := smallProfile()
	p.Workflows, p.MaxMutations = p.Clusters, 0
	if c, err := Generate(p, 1); err != nil || c.Repo.Snapshot().Size() != p.Clusters {
		t.Errorf("one workflow per cluster, MaxMutations 0: %v", err)
	}
}

func TestGenerateSizeAndValidity(t *testing.T) {
	c, err := Generate(smallProfile(), 7)
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Repo.Snapshot()
	if snap.Size() != 120 {
		t.Errorf("size = %d, want 120", snap.Size())
	}
	if err := snap.Validate(); err != nil {
		t.Errorf("invalid corpus: %v", err)
	}
	for _, wf := range snap.Workflows() {
		if wf.Size() == 0 {
			t.Errorf("workflow %s empty", wf.ID)
		}
		if _, ok := c.Truth.Meta[wf.ID]; !ok {
			t.Errorf("workflow %s missing from truth", wf.ID)
		}
	}
}

func TestGenerateTavernaStatistics(t *testing.T) {
	c, err := Generate(Taverna(), 1)
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Repo.Snapshot()
	if snap.Size() != 1483 {
		t.Fatalf("size = %d, want 1483", snap.Size())
	}
	var modules, tagged, withDesc int
	typeSpellings := map[string]bool{}
	for _, wf := range snap.Workflows() {
		modules += wf.Size()
		if len(wf.Annotations.Tags) > 0 {
			tagged++
		}
		if wf.Annotations.Description != "" {
			withDesc++
		}
		for _, m := range wf.Modules {
			typeSpellings[m.Type] = true
		}
	}
	mean := float64(modules) / float64(snap.Size())
	if mean < 8 || mean > 15 {
		t.Errorf("mean modules/workflow = %.1f, want near the paper's 11.3", mean)
	}
	tagFrac := float64(tagged) / float64(snap.Size())
	if tagFrac < 0.78 || tagFrac > 0.92 {
		t.Errorf("tagged fraction = %.2f, want ~0.85", tagFrac)
	}
	// Heterogeneous web-service spellings must occur.
	found := 0
	for _, sp := range wsdlSpellings() {
		if typeSpellings[sp] {
			found++
		}
	}
	if found < 3 {
		t.Errorf("only %d wsdl spellings in corpus, want >= 3", found)
	}
}

func TestGenerateGalaxySparseAnnotations(t *testing.T) {
	c, err := Generate(Galaxy(), 1)
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Repo.Snapshot()
	if snap.Size() != 139 {
		t.Fatalf("size = %d, want 139", snap.Size())
	}
	var withDesc int
	for _, wf := range snap.Workflows() {
		if wf.Annotations.Description != "" {
			withDesc++
		}
		for _, m := range wf.Modules {
			if !m.IsLocal() && m.Type != workflow.TypeTool {
				t.Fatalf("galaxy module with type %q", m.Type)
			}
		}
	}
	frac := float64(withDesc) / float64(snap.Size())
	if frac > 0.3 {
		t.Errorf("description fraction = %.2f, want sparse (< 0.3)", frac)
	}
}

func TestTruthStructure(t *testing.T) {
	c, err := Generate(smallProfile(), 13)
	if err != nil {
		t.Fatal(err)
	}
	tr := c.Truth
	// Group IDs by cluster and domain.
	byCluster := map[int][]string{}
	byDomain := map[int][]string{}
	for id, m := range tr.Meta {
		byCluster[m.Cluster] = append(byCluster[m.Cluster], id)
		byDomain[m.Domain] = append(byDomain[m.Domain], id)
	}
	// Intra-cluster similarity must dominate cross-domain similarity.
	var intra, cross []float64
	for _, ids := range byCluster {
		if len(ids) >= 2 {
			intra = append(intra, tr.Sim(ids[0], ids[1]))
		}
	}
	for id1, m1 := range tr.Meta {
		for id2, m2 := range tr.Meta {
			if m1.Domain != m2.Domain {
				cross = append(cross, tr.Sim(id1, id2))
				break
			}
		}
		break
	}
	for _, v := range intra {
		if v < 0.4 {
			t.Errorf("intra-cluster truth %v too low", v)
		}
	}
	for _, v := range cross {
		if v > 0.15 {
			t.Errorf("cross-domain truth %v too high", v)
		}
	}
	if got := tr.Sim("1000", "1000"); got != 1 {
		t.Errorf("self truth = %v, want 1", got)
	}
	if got := tr.Sim("nope", "1000"); got != 0 {
		t.Errorf("unknown truth = %v, want 0", got)
	}
}

func TestTruthSymmetricDeterministic(t *testing.T) {
	c, _ := Generate(smallProfile(), 3)
	ids := c.Repo.Snapshot().IDs()
	for i := 0; i < 20; i++ {
		a, b := ids[i], ids[len(ids)-1-i]
		if c.Truth.Sim(a, b) != c.Truth.Sim(b, a) {
			t.Fatalf("truth asymmetric for (%s,%s)", a, b)
		}
	}
}

// The generated corpus must be discriminable by the similarity measures:
// same-cluster pairs should score above cross-domain pairs on average for
// both structural and annotation measures. This is the linchpin of the
// whole evaluation pipeline.
func TestGeneratedCorpusDiscriminable(t *testing.T) {
	c, err := Generate(smallProfile(), 5)
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Repo.Snapshot()
	byCluster := map[int][]string{}
	for id, m := range c.Truth.Meta {
		byCluster[m.Cluster] = append(byCluster[m.Cluster], id)
	}
	ms := measures.NewStructural(measures.Config{
		Topology:  measures.ModuleSets,
		Scheme:    module.PLL(),
		Normalize: true,
	})
	bw := measures.BagOfWords{}

	var sameMS, crossMS, sameBW, crossBW []float64
	count := 0
	for _, ids := range byCluster {
		if len(ids) < 2 || count >= 6 {
			continue
		}
		count++
		a := snap.Get(ids[0])
		b := snap.Get(ids[1])
		s, _ := ms.Compare(a, b)
		sameMS = append(sameMS, s)
		s, _ = bw.Compare(a, b)
		sameBW = append(sameBW, s)
		// Cross-domain partner.
		ma := c.Truth.Meta[ids[0]]
		for id2, m2 := range c.Truth.Meta {
			if m2.Domain != ma.Domain {
				x := snap.Get(id2)
				s, _ := ms.Compare(a, x)
				crossMS = append(crossMS, s)
				s, _ = bw.Compare(a, x)
				crossBW = append(crossBW, s)
				break
			}
		}
	}
	if mean(sameMS) <= mean(crossMS) {
		t.Errorf("MS cannot discriminate: same %.3f vs cross %.3f", mean(sameMS), mean(crossMS))
	}
	if mean(sameBW) <= mean(crossBW) {
		t.Errorf("BW cannot discriminate: same %.3f vs cross %.3f", mean(sameBW), mean(crossBW))
	}
}

// Labels in the same cluster must drift (case/style variants) so that edit
// distance beats strict matching — a precondition for the paper's pll vs
// plm finding.
func TestLabelDriftWithinClusters(t *testing.T) {
	c, err := Generate(smallProfile(), 11)
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Repo.Snapshot()
	byCluster := map[int][]string{}
	for id, m := range c.Truth.Meta {
		byCluster[m.Cluster] = append(byCluster[m.Cluster], id)
	}
	drifted := 0
	for _, ids := range byCluster {
		if len(ids) < 4 {
			continue
		}
		labels := map[string]bool{}
		for _, id := range ids {
			for _, m := range snap.Get(id).Modules {
				if !m.IsLocal() {
					labels[strings.ToLower(m.Label)] = true
				}
			}
		}
		if len(labels) > 4 { // more label variants than core ops implies drift
			drifted++
		}
	}
	if drifted == 0 {
		t.Error("no cluster exhibits label drift")
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// The vocabulary draws behind mutations, shims and annotation words follow
// a Zipf distribution: the head of a pool must dominate its tail, and every
// element must remain reachable.
func TestZipfPickSkewAndCoverage(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n, draws = 20, 20000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		k := zipfPick(r, n)
		if k < 0 || k >= n {
			t.Fatalf("zipfPick out of range: %d", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[n-1]*3 {
		t.Errorf("head not dominant: counts[0]=%d counts[%d]=%d", counts[0], n-1, counts[n-1])
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("pool element %d never drawn in %d draws", i, draws)
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max != counts[0] {
		t.Errorf("mode is not the first element: counts=%v", counts[:5])
	}
	// Degenerate pools stay total and consume the stream consistently.
	if zipfPick(r, 1) != 0 || zipfPick(r, 0) != 0 {
		t.Error("degenerate pool sizes must yield index 0")
	}
}

// Zipf-skewed shim vocabulary shows up in generated corpora: the most
// common canonical shim label is used far more often than the median one.
func TestGeneratedShimLabelsSkewed(t *testing.T) {
	c, err := Generate(smallProfile(), 11)
	if err != nil {
		t.Fatal(err)
	}
	freq := map[string]int{}
	for _, wf := range c.Repo.Snapshot().Workflows() {
		for _, m := range wf.Modules {
			switch m.Type {
			case workflow.TypeLocalWorker, workflow.TypeStringConst, workflow.TypeXMLSplitter, workflow.TypeXMLMerger:
				freq[workflow.CanonicalLabel(m.Label)]++
			}
		}
	}
	if len(freq) < 3 {
		t.Skipf("too few shim labels to measure skew: %d", len(freq))
	}
	counts := make([]int, 0, len(freq))
	for _, n := range freq {
		counts = append(counts, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	if counts[0] < 2*counts[len(counts)/2] {
		t.Errorf("shim label distribution not head-skewed: top=%d median=%d", counts[0], counts[len(counts)/2])
	}
}
