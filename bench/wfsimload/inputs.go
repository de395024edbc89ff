package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/pkg/wfsim"
)

// sizes fixes how much work one run does. Everything is a count, never a
// duration: two runs of the same sizes and seed execute identical schedules.
type sizes struct {
	base      int // workflows in the served corpus
	held      int // held-out workflows: inline queries and content for adds/replaces
	protected int // base IDs no mutation touches; the query_id targets
	draws     int // independent generator draws the corpus is the union of

	setupRepeats  int     // timed set-ups per run; setup_s is their median
	ingestBatches int     // batches that ingest the base corpus in ingest_durable's set-up
	closedSeconds float64 // closed-phase length on the reference box; × closedRate = ops
	openSeconds   float64 // open-phase length; × openRate = ops
	closedOps     int     // > 0 overrides closedSeconds × closedRate (smoke runs)
	openOps       int     // > 0 overrides openSeconds × openRate
	warmupScale   float64 // share of the workload's warm-up schedule to run
	deepChecks    int     // reference-engine evaluations verify may spend per run
	readbacks     int     // workflows read back after the crash-restart
	probeBurst    int     // speed probes per measuring point
	probePairs    int     // fixed pair sample of the per-pair kernel probes
	gedPairs      int
}

// fullSizes is the size BENCHMARK.json measures. seconds is the driver's
// --seconds: 65 % of it goes to the closed loop, 35 % to the open loop.
func fullSizes(seconds float64) sizes {
	return sizes{
		base: 2000, held: 600, protected: 64, draws: 8,
		setupRepeats: 3, ingestBatches: 250,
		closedSeconds: 0.65 * seconds, openSeconds: 0.35 * seconds,
		warmupScale: 1,
		deepChecks:  24, readbacks: 400,
		probeBurst: 5, probePairs: 2000, gedPairs: 200,
	}
}

// traced is the size of the traced run: one set-up, and the first tenth of
// the closed schedule, which is also what the in-process replay covers.
func (sz sizes) traced() sizes {
	sz.setupRepeats = 1
	sz.closedSeconds *= 0.1
	return sz
}

// smokeSizes is the configuration the package test runs in a few seconds.
func smokeSizes() sizes {
	return sizes{
		base: 100, held: 60, protected: 8, draws: 2,
		setupRepeats: 1, ingestBatches: 10,
		closedOps: 20, openOps: 6,
		warmupScale: 0.1,
		deepChecks:  8, readbacks: 40,
		probeBurst: 1, probePairs: 100, gedPairs: 3,
	}
}

// inputs is everything generated from the seed. The server only ever sees
// the corpus file and HTTP bodies derived from it.
type inputs struct {
	seed      int64
	base      []*wfsim.Workflow // served corpus, in corpus-file order
	held      []*wfsim.Workflow // never in the corpus under their own ID
	protected []string          // base IDs safe to query while mutations run
	mutable   []string          // base IDs mutations may replace or remove
}

// generate builds the inputs: draws independent Taverna-profile corpora that
// together hold base+held workflows, shuffles their union by the seed and
// renumbers it. One draw would do for correctness, but its cost per search
// swings by ±15 % from seed to seed, because a third of such a corpus
// descends from its three largest cluster prototypes; the union of several
// draws averages that out, so that runs on different seeds measure the
// program and not the luck of the draw.
func generate(seed int64, sz sizes) (*inputs, error) {
	total := sz.base + sz.held
	var all []*wfsim.Workflow
	for d := 0; d < sz.draws; d++ {
		p := wfsim.TavernaProfile()
		p.Workflows = total / sz.draws
		if d < total%sz.draws {
			p.Workflows++
		}
		if p.Clusters > p.Workflows/2 {
			p.Clusters = p.Workflows / 2
		}
		gc, err := wfsim.GenerateCorpus(p, seed*1000+int64(d))
		if err != nil {
			return nil, fmt.Errorf("generate corpus: %w", err)
		}
		all = append(all, gc.Repo.Snapshot().Workflows()...)
	}
	r := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed}
	for i, j := range r.Perm(len(all)) {
		wf := all[j].Clone()           // drops the generator's symbol IDs
		wf.ID = strconv.Itoa(1000 + i) // every draw numbers from 1000
		if i < sz.base {
			in.base = append(in.base, wf)
		} else {
			in.held = append(in.held, wf)
		}
	}
	for i, wf := range in.base {
		if i < sz.protected {
			in.protected = append(in.protected, wf.ID)
		} else {
			in.mutable = append(in.mutable, wf.ID)
		}
	}
	return in, nil
}

// writeCorpus saves the base corpus in wfsimd's -corpus format.
func (in *inputs) writeCorpus(path string) error {
	repo, err := wfsim.NewRepository(cloneAll(in.base)...)
	if err != nil {
		return fmt.Errorf("build base repository: %w", err)
	}
	return repo.SaveFile(path)
}

func cloneAll(wfs []*wfsim.Workflow) []*wfsim.Workflow {
	out := make([]*wfsim.Workflow, len(wfs))
	for i, wf := range wfs {
		out[i] = wf.Clone()
	}
	return out
}

// mutOp is one mutation of a batch, compact enough to keep for every batch
// of a run: src indexes held (or base when fromBase) for the content of an
// add or replace.
type mutOp struct {
	kind     string // "add", "replace", "remove"
	id       string
	src      int
	fromBase bool
}

// workflowFor materialises the workflow an add or replace carries.
func (in *inputs) workflowFor(op mutOp) *wfsim.Workflow {
	pool := in.held
	if op.fromBase {
		pool = in.base
	}
	wf := pool[op.src].Clone()
	wf.ID = op.id
	return wf
}

func (in *inputs) mutation(op mutOp) wfsim.Mutation {
	switch op.kind {
	case "add":
		return wfsim.AddWorkflow(in.workflowFor(op))
	case "replace":
		return wfsim.ReplaceWorkflow(in.workflowFor(op))
	default:
		return wfsim.RemoveWorkflow(op.id)
	}
}

// wireOp mirrors serve's batch op encoding.
type wireOp struct {
	Op       string          `json:"op"`
	ID       string          `json:"id,omitempty"`
	Workflow *wfsim.Workflow `json:"workflow,omitempty"`
}

func (in *inputs) wire(op mutOp) wireOp {
	if op.kind == "remove" {
		return wireOp{Op: op.kind, ID: op.id}
	}
	return wireOp{Op: op.kind, Workflow: in.workflowFor(op)}
}

type reqKind int

const (
	kindSearch reqKind = iota
	kindBatch
)

// request is one pre-marshalled HTTP request plus what verify needs to
// judge its reply.
type request struct {
	kind  reqKind
	path  string
	ctype string
	body  []byte

	queryID string  // search by repository ID
	query   int     // search by inline held[query]; -1 otherwise
	indexed bool    // the server may answer through the inverted index
	ops     []mutOp // batch
}

// step is what a closed loop issues at once: one request, or mixed_churn's
// mutation batch and search on two connections. The step completes when all
// of its requests have.
type step []*request

const (
	pathSearch = "/v1/search"
	pathBatch  = "/v1/workflows:batch"
)

func mustJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(fmt.Sprintf("marshal %T: %v", v, err)) // only generated values are marshalled
	}
	return bytes.TrimRight(buf.Bytes(), "\n")
}

func (in *inputs) searchByID(id string, indexed bool) *request {
	return &request{
		kind: kindSearch, path: pathSearch, ctype: "application/json",
		body:    mustJSON(map[string]any{"query_id": id, "k": topK}),
		queryID: id, query: -1, indexed: indexed,
	}
}

func (in *inputs) searchInline(held int) *request {
	return &request{
		kind: kindSearch, path: pathSearch, ctype: "application/json",
		body:  mustJSON(map[string]any{"query": in.held[held], "k": topK}),
		query: held,
	}
}

// batch marshals ops as a JSON batch, or as NDJSON when ndjson is set.
func (in *inputs) batch(ops []mutOp, ndjson bool) *request {
	req := &request{kind: kindBatch, path: pathBatch, query: -1, ops: ops}
	wire := make([]wireOp, len(ops))
	for i, op := range ops {
		wire[i] = in.wire(op)
	}
	if !ndjson {
		req.ctype = "application/json"
		req.body = mustJSON(map[string]any{"ops": wire})
		return req
	}
	req.ctype = "application/x-ndjson"
	var buf bytes.Buffer
	for _, w := range wire {
		buf.Write(mustJSON(w))
		buf.WriteByte('\n')
	}
	req.body = buf.Bytes()
	return req
}

// churn is the model of which IDs exist, so that every generated mutation
// is valid against the state the preceding ones leave: adds use fresh IDs,
// replaces and removes pick a present, unprotected ID.
type churn struct {
	in      *inputs
	r       *rand.Rand
	present []string // unprotected IDs currently in the corpus
	fresh   int      // next fresh ID number
	next    int      // next held workflow to take content from
}

func newChurn(in *inputs, r *rand.Rand, present []string) *churn {
	return &churn{in: in, r: r, present: append([]string(nil), present...)}
}

func (c *churn) content() int {
	i := c.next % len(c.in.held)
	c.next++
	return i
}

func (c *churn) add() mutOp {
	c.fresh++
	return mutOp{kind: "add", id: fmt.Sprintf("n%07d", c.fresh), src: c.content()}
}

// pick takes a random present ID out of the model; the caller puts it back
// unless it removes it.
func (c *churn) pick() string {
	i := c.r.Intn(len(c.present))
	id := c.present[i]
	c.present[i] = c.present[len(c.present)-1]
	c.present = c.present[:len(c.present)-1]
	return id
}

// ops builds one batch of the given shape. IDs a batch touches are distinct,
// and added IDs become eligible only for later batches.
func (c *churn) ops(adds, replaces, removes int) []mutOp {
	var out []mutOp
	var back []string
	for i := 0; i < adds; i++ {
		op := c.add()
		out = append(out, op)
		back = append(back, op.id)
	}
	for i := 0; i < replaces; i++ {
		id := c.pick()
		out = append(out, mutOp{kind: "replace", id: id, src: c.content()})
		back = append(back, id)
	}
	for i := 0; i < removes; i++ {
		out = append(out, mutOp{kind: "remove", id: c.pick()})
	}
	c.present = append(c.present, back...)
	return out
}

// zipf draws n indexes in [0, k) with a Zipf(1.1) skew.
func zipf(r *rand.Rand, k, n int) []int {
	z := rand.NewZipf(r, 1.1, 1, uint64(k-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}
