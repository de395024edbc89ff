package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/corpus"
	"repro/internal/workflow"
)

// Profile parameterises corpus generation for a repository style.
type Profile struct {
	// Name identifies the profile ("taverna", "galaxy").
	Name string
	// Workflows is the corpus size.
	Workflows int
	// Clusters is the number of latent functional clusters.
	Clusters int
	// CoreMin/CoreMax bound the number of core operations per prototype.
	CoreMin, CoreMax int
	// ShimMin/ShimMax bound the trivial shim modules inserted per workflow.
	ShimMin, ShimMax int
	// MaxMutations bounds the mutation depth of cluster members.
	MaxMutations int
	// TagProb is the probability a workflow carries tags (the paper notes
	// ~15% of myExperiment workflows lack tags).
	TagProb float64
	// DescProb is the probability a workflow carries a description.
	DescProb float64
	// TitleQuality is the probability a title carries topical words rather
	// than a generic name ("Unnamed workflow 7"). Galaxy uploads are often
	// titled generically, which starves annotation-based comparison.
	TitleQuality float64
	// Galaxy switches module realisation to Galaxy tool style (sparse
	// annotations, uniform "tool" type, parameters instead of services).
	Galaxy bool
}

// Taverna returns the myExperiment-like profile: 1483 workflows, rich
// annotations, heterogeneous Taverna module types, ~11 modules per workflow.
func Taverna() Profile {
	return Profile{
		Name:      "taverna",
		Workflows: 1483,
		Clusters:  48,
		CoreMin:   5, CoreMax: 8,
		ShimMin: 2, ShimMax: 6,
		MaxMutations: 4,
		TagProb:      0.85,
		DescProb:     0.90,
		TitleQuality: 0.95,
	}
}

// Galaxy returns the Galaxy-repository profile: 139 workflows, sparse
// annotations, tool-style modules, fewer shims.
func Galaxy() Profile {
	return Profile{
		Name:      "galaxy",
		Workflows: 139,
		Clusters:  14,
		CoreMin:   4, CoreMax: 8,
		ShimMin: 0, ShimMax: 2,
		MaxMutations: 4,
		TagProb:      0.35,
		DescProb:     0.15,
		TitleQuality: 0.30,
		Galaxy:       true,
	}
}

// Corpus is a generated repository together with its latent ground truth.
type Corpus struct {
	Profile Profile
	Repo    *corpus.Repository
	Truth   *Truth
}

// validate rejects a profile Generate cannot build, naming the field: every
// cluster gets at least one workflow and every prototype at least one core
// operation, and the members after a cluster's first are mutated at least
// once.
func (p Profile) validate() error {
	switch {
	case p.Clusters < 1:
		return fmt.Errorf("gen: profile %q: Clusters = %d, want at least 1", p.Name, p.Clusters)
	case p.Workflows < p.Clusters:
		return fmt.Errorf("gen: profile %q: Workflows = %d is fewer than Clusters = %d; every cluster needs a workflow", p.Name, p.Workflows, p.Clusters)
	case p.CoreMin < 1:
		return fmt.Errorf("gen: profile %q: CoreMin = %d, want at least 1", p.Name, p.CoreMin)
	case p.CoreMax < p.CoreMin:
		return fmt.Errorf("gen: profile %q: CoreMax = %d is below CoreMin = %d", p.Name, p.CoreMax, p.CoreMin)
	case p.MaxMutations < 1 && p.Workflows > p.Clusters:
		return fmt.Errorf("gen: profile %q: MaxMutations = %d, want at least 1 once a cluster has two members", p.Name, p.MaxMutations)
	}
	return nil
}

// Generate builds a corpus deterministically from the profile and seed.
func Generate(p Profile, seed int64) (*Corpus, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	doms := domains()
	shims := shimBank()

	truth := &Truth{Meta: map[string]WorkflowMeta{}}
	repo, err := corpus.NewRepository()
	if err != nil {
		return nil, err
	}

	// Build cluster prototypes.
	protos := make([]*prototype, p.Clusters)
	for c := range protos {
		d := c % len(doms)
		protos[c] = newPrototype(r, c, d, doms[d], p)
	}

	// Distribute workflows over clusters with a mild skew: popular
	// functionality is reused more often, as in real repositories.
	sizes := clusterSizes(r, p.Workflows, p.Clusters)

	next := 1000 // myExperiment-style numeric IDs
	for c, proto := range protos {
		for k := 0; k < sizes[c]; k++ {
			id := fmt.Sprintf("%d", next)
			next++
			depth := 0
			if k > 0 { // the first member is the prototype itself
				depth = 1 + r.Intn(p.MaxMutations)
			}
			wf := proto.instantiate(r, id, depth, p, shims)
			if err := repo.Add(wf); err != nil {
				return nil, err
			}
			truth.Meta[id] = WorkflowMeta{Cluster: c, Domain: proto.domain, MutationDepth: depth}
		}
	}
	if err := repo.Snapshot().Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated invalid corpus: %w", err)
	}
	return &Corpus{Profile: p, Repo: repo, Truth: truth}, nil
}

// clusterSizes partitions total into clusters parts with a 1/rank skew,
// each part at least 1.
func clusterSizes(r *rand.Rand, total, clusters int) []int {
	weights := make([]float64, clusters)
	var wsum float64
	for i := range weights {
		weights[i] = 1 / float64(i+1)
		wsum += weights[i]
	}
	sizes := make([]int, clusters)
	assigned := 0
	for i := range sizes {
		sizes[i] = 1 + int(float64(total-clusters)*weights[i]/wsum)
		assigned += sizes[i]
	}
	// Distribute the rounding remainder randomly.
	for assigned < total {
		sizes[r.Intn(clusters)]++
		assigned++
	}
	for assigned > total {
		i := r.Intn(clusters)
		if sizes[i] > 1 {
			sizes[i]--
			assigned--
		}
	}
	return sizes
}

// prototype is a cluster's canonical pipeline.
type prototype struct {
	cluster int
	domain  int
	dom     domain
	ops     []operation // pipeline order
	topics  []string    // cluster-specific topic words
	// branchAt marks pipeline positions where the DAG forks (op i and i+1
	// run in parallel, joining at i+2).
	branchAt map[int]bool
}

func newPrototype(r *rand.Rand, cluster, domIdx int, dom domain, p Profile) *prototype {
	n := p.CoreMin + r.Intn(p.CoreMax-p.CoreMin+1)
	if n > len(dom.operations) {
		n = len(dom.operations)
	}
	perm := r.Perm(len(dom.operations))
	ops := make([]operation, n)
	for i := 0; i < n; i++ {
		ops[i] = dom.operations[perm[i]]
	}
	// Cluster topics: 3-4 domain topics, fixed per cluster.
	tperm := r.Perm(len(dom.topics))
	tn := 3 + r.Intn(2)
	if tn > len(dom.topics) {
		tn = len(dom.topics)
	}
	topics := make([]string, tn)
	for i := 0; i < tn; i++ {
		topics[i] = dom.topics[tperm[i]]
	}
	branch := map[int]bool{}
	for i := 0; i+2 < n; i++ {
		if r.Intn(4) == 0 {
			branch[i] = true
		}
	}
	return &prototype{cluster: cluster, domain: domIdx, dom: dom, ops: ops, topics: topics, branchAt: branch}
}

// instantiate derives one member workflow by applying depth mutations to the
// prototype, inserting shims, and annotating.
func (pr *prototype) instantiate(r *rand.Rand, id string, depth int, p Profile, shims []shim) *workflow.Workflow {
	ops := append([]operation(nil), pr.ops...)
	branch := map[int]bool{}
	for k, v := range pr.branchAt {
		branch[k] = v
	}
	relabeled := map[int]int{} // op index -> label style mutation count

	for m := 0; m < depth; m++ {
		switch r.Intn(5) {
		case 0, 1: // relabel is the most common drift
			if len(ops) > 0 {
				relabeled[r.Intn(len(ops))]++
			}
		case 2: // delete a core op
			if len(ops) > 3 {
				i := r.Intn(len(ops))
				ops = append(ops[:i], ops[i+1:]...)
				delete(branch, i)
			}
		case 3: // add a uniformly random op from the domain pool
			ops = insertOp(ops, pr.dom.operations[r.Intn(len(pr.dom.operations))], r)
		case 4: // rewire: toggle a branch point
			if len(ops) > 2 {
				i := r.Intn(len(ops) - 2)
				branch[i] = !branch[i]
			}
		}
	}

	wf := workflow.New(id)
	idxOf := make([]int, len(ops))
	for i, op := range ops {
		style := relabeled[i]
		wf.AddModule(realiseModule(r, op, style, p, i))
		idxOf[i] = i
	}
	// Pipeline edges with optional diamonds: at a branch point i, both i+1
	// and i+2 depend on i, and i+3 (if any) joins them.
	for i := 0; i+1 < len(ops); i++ {
		if branch[i] && i+2 < len(ops) {
			mustEdge(wf, idxOf[i], idxOf[i+1])
			mustEdge(wf, idxOf[i], idxOf[i+2])
			if i+3 < len(ops) {
				mustEdge(wf, idxOf[i+1], idxOf[i+3])
				mustEdge(wf, idxOf[i+2], idxOf[i+3])
			}
		} else {
			mustEdge(wf, idxOf[i], idxOf[i+1])
		}
	}

	// Insert shims by splitting random edges.
	nshims := p.ShimMin
	if p.ShimMax > p.ShimMin {
		nshims += r.Intn(p.ShimMax - p.ShimMin + 1)
	}
	for s := 0; s < nshims && wf.EdgeCount() > 0; s++ {
		e := wf.Edges[r.Intn(len(wf.Edges))]
		// Shim vocabulary is Zipf-skewed: a few ubiquitous shims (string
		// concatenation, list flattening) dominate real corpora.
		sh := shims[zipfPick(r, len(shims))]
		// Authors name their shim instances: about half carry a suffix or
		// case variant, so strict label matching fails across workflows
		// while edit distance still scores them close.
		label := sh.label
		switch r.Intn(4) {
		case 0:
			label = fmt.Sprintf("%s_%d", label, 2+r.Intn(3))
		case 1:
			label = strings.ReplaceAll(label, "_", " ")
		}
		si := wf.AddModule(&workflow.Module{
			ID:    fmt.Sprintf("shim%d", s),
			Label: label,
			Type:  sh.typ,
		})
		// Replace e with e.From -> shim -> e.To.
		for i := range wf.Edges {
			if wf.Edges[i] == e {
				wf.Edges = append(wf.Edges[:i], wf.Edges[i+1:]...)
				break
			}
		}
		mustEdge(wf, e.From, si)
		mustEdge(wf, si, e.To)
	}
	for i, m := range wf.Modules {
		if m.ID == "" || !strings.HasPrefix(m.ID, "shim") {
			m.ID = fmt.Sprintf("m%d", i)
		} else {
			m.ID = fmt.Sprintf("m%d", i)
		}
	}

	pr.annotate(r, wf, depth, p)
	return wf
}

// insertOp inserts op at a random position.
func insertOp(ops []operation, op operation, r *rand.Rand) []operation {
	i := r.Intn(len(ops) + 1)
	out := make([]operation, 0, len(ops)+1)
	out = append(out, ops[:i]...)
	out = append(out, op)
	out = append(out, ops[i:]...)
	return out
}

// realiseModule turns an abstract operation into a concrete module,
// rendering the label in one of several author styles (mutation shifts the
// style), and choosing a type spelling.
func realiseModule(r *rand.Rand, op operation, styleShift int, p Profile, pos int) *workflow.Module {
	label := renderLabel(op.labelWords, (hashWords(op.labelWords)+styleShift)%numLabelStyles, styleShift)
	m := &workflow.Module{Label: label}
	switch {
	case p.Galaxy:
		m.Type = workflow.TypeTool
		m.ServiceName = strings.Join(op.labelWords, "_") // tool id
		m.Params = map[string]string{"version": fmt.Sprintf("1.%d", styleShift%3)}
		// Galaxy step labels are often left at their generic defaults
		// ("step_3"); the tool id remains informative. This is why
		// multi-attribute comparison (gw1) beats label-only comparison
		// (gll) on Galaxy, inverting the Taverna finding (Section 5.3).
		if r.Intn(5) < 2 {
			m.Label = fmt.Sprintf("step_%d", pos+1)
		}
	case op.scripted:
		m.Type = scriptSpellings()[r.Intn(len(scriptSpellings()))]
		m.Script = op.script
		if styleShift > 0 {
			m.Script += " // v" + fmt.Sprint(styleShift)
		}
	default:
		m.Type = wsdlSpellings()[r.Intn(len(wsdlSpellings()))]
		// Service endpoints churn across mirrors and deployments, so exact
		// URI matching (as in pw0's uniform weighting) is brittle even for
		// the same logical service; labels drift less. This is what makes
		// uniform attribute weights the worst module scheme (Section 5.1.2).
		switch r.Intn(3) {
		case 0:
			m.ServiceURI = op.uri
		case 1:
			m.ServiceURI = op.uri + "?wsdl"
		default:
			m.ServiceURI = strings.Replace(op.uri, "http://", "http://mirror.", 1)
		}
		m.ServiceName = op.service
		if r.Intn(4) == 0 {
			m.Authority = strings.ToUpper(op.authority)
		} else {
			m.Authority = op.authority
		}
	}
	return m
}

const numLabelStyles = 4

// renderLabel renders label words in a consistent per-operation base style;
// styleShift > 0 (relabeling mutations) switches style and may append a
// version suffix or drop a word — label drift that edit distance absorbs but
// strict matching does not.
func renderLabel(words []string, style, styleShift int) string {
	w := append([]string(nil), words...)
	if styleShift >= 2 && len(w) > 2 {
		w = w[:len(w)-1] // drop trailing word
	}
	var label string
	switch style % numLabelStyles {
	case 0:
		label = strings.Join(w, "_")
	case 1: // camelCase
		var b strings.Builder
		for i, word := range w {
			if i == 0 {
				b.WriteString(word)
				continue
			}
			b.WriteString(strings.ToUpper(word[:1]) + word[1:])
		}
		label = b.String()
	case 2: // TitleCase with underscores
		up := make([]string, len(w))
		for i, word := range w {
			up[i] = strings.ToUpper(word[:1]) + word[1:]
		}
		label = strings.Join(up, "_")
	default:
		label = strings.Join(w, " ")
	}
	if styleShift >= 3 {
		label += fmt.Sprintf("_%d", styleShift)
	}
	return label
}

func hashWords(words []string) int {
	h := 0
	for _, w := range words {
		for _, c := range w {
			h = (h*31 + int(c)) & 0x7fffffff
		}
	}
	return h
}

// annotate writes title, description and tags. Taverna-profile annotations
// are rich and cluster-coherent; Galaxy-profile annotations are sparse.
func (pr *prototype) annotate(r *rand.Rand, wf *workflow.Workflow, depth int, p Profile) {
	noise := noiseWords()
	if r.Float64() < p.TitleQuality {
		titleWords := append([]string(nil), pr.topics[:min(2, len(pr.topics))]...)
		titleWords = append(titleWords, noise[zipfPick(r, len(noise))])
		if depth >= 2 {
			titleWords = append(titleWords, noise[zipfPick(r, len(noise))])
		}
		wf.Annotations.Title = strings.Title(strings.Join(titleWords, " "))
	} else {
		wf.Annotations.Title = fmt.Sprintf("Unnamed %s %d", noise[zipfPick(r, len(noise))], r.Intn(100))
	}
	wf.Annotations.Author = fmt.Sprintf("author%02d", r.Intn(40))

	if r.Float64() < p.DescProb {
		var b strings.Builder
		fmt.Fprintf(&b, "This workflow performs %s using %s.",
			strings.Join(pr.topics, " "), pr.dom.name)
		for i := 0; i < 2; i++ {
			op := pr.ops[r.Intn(len(pr.ops))]
			fmt.Fprintf(&b, " It uses %s to process the %s data.",
				strings.Join(op.labelWords, " "), noise[zipfPick(r, len(noise))])
		}
		wf.Annotations.Description = b.String()
	}
	if r.Float64() < p.TagProb {
		nt := 2 + r.Intn(3)
		perm := r.Perm(len(pr.dom.topics))
		for i := 0; i < nt && i < len(perm); i++ {
			wf.Annotations.Tags = append(wf.Annotations.Tags, pr.dom.topics[perm[i]])
		}
		wf.Annotations.Tags = append(wf.Annotations.Tags, pr.dom.name)
	}
}

// mustEdge wires an edge between modules the generator itself just created.
// The indices are valid by construction, so a failure is a generator bug:
// panic instead of discarding the error.
func mustEdge(wf *workflow.Workflow, from, to int) {
	if err := wf.AddEdge(from, to); err != nil {
		panic(fmt.Sprintf("gen: internal edge %d->%d rejected: %v", from, to, err))
	}
}
