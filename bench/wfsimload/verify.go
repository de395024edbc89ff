package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"

	"repro/pkg/wfsim"
)

// recallFloor is the recall@10 an index-served answer must reach against
// the exact reference ranking to count as correct. The label index is a
// heuristic for edit-distance schemes, so 1.0 is not owed; on the generated
// corpora the seed reads 1.0 on every checked query (see README).
const recallFloor = 0.9

type searchResult struct {
	ID         string  `json:"id"`
	Similarity float64 `json:"similarity"`
}

type searchReply struct {
	Results []searchResult `json:"results"`
	Stats   struct {
		Generation uint64 `json:"generation"`
	} `json:"stats"`
}

type batchReply struct {
	Generation uint64 `json:"generation"`
	Ops        int    `json:"ops"`
}

// checker judges every reply of a run against an in-process reference: a
// plain wfsim.Engine — no index, cache, shards or storage — over the same
// base corpus, replaying the acknowledged batches up to the generation each
// search reply reports. Batches must be committed (commit) in the order the
// server acknowledged them, and searches judged after all commits are in.
type checker struct {
	in        *inputs
	preloaded bool // the server booted over the base corpus (-corpus)

	batches   [][]mutOp      // acknowledged batches, commit order
	batchesAt map[uint64]int // generation a reply may report → batches committed by then
	lastGen   uint64

	ref     *wfsim.Engine // built on first use
	applied int           // batches replayed into ref
	memo    map[string][]wfsim.Result
	budget  int // reference evaluations searches may spend

	checked, verified int
}

func newChecker(in *inputs, preloaded bool, budget int) *checker {
	return &checker{
		in: in, preloaded: preloaded, budget: budget,
		batchesAt: map[uint64]int{0: 0}, // an empty or freshly preloaded corpus is generation 0
		memo:      map[string][]wfsim.Result{},
	}
}

func (c *checker) tally(ok bool) {
	c.checked++
	if ok {
		c.verified++
	}
}

func (c *checker) share() float64 {
	if c.checked == 0 {
		return 0
	}
	return float64(c.verified) / float64(c.checked)
}

// commit records one batch reply, in acknowledgement order. A batch that was
// not acknowledged did not commit (Apply is all-or-nothing) and is skipped
// by the replay; the run already counts it as failed.
func (c *checker) commit(rep *reply) {
	if !rep.ok() {
		c.tally(false)
		return
	}
	var br batchReply
	good := json.Unmarshal(rep.body, &br) == nil &&
		br.Ops == len(rep.req.ops) && br.Generation > c.lastGen
	c.tally(good)
	c.batches = append(c.batches, rep.req.ops)
	if good {
		c.lastGen = br.Generation
		c.batchesAt[br.Generation] = len(c.batches)
	}
}

// searches judges the search replies. Every reply gets the structural
// checks; the exact comparison against the reference is spent on replies
// whose answer is already memoised (repeated query at the same generation)
// and on an evenly spaced sample within the budget, because one reference
// scan costs as much as the request it checks.
func (c *checker) searches(ctx context.Context, reps []*reply) error {
	type judged struct {
		rep     *reply
		sr      searchReply
		applied int
		deep    bool
	}
	var js []*judged
	for _, rep := range reps {
		j := &judged{rep: rep}
		if !rep.ok() || json.Unmarshal(rep.body, &j.sr) != nil || !wellFormed(j.sr.Results) {
			c.tally(false)
			continue
		}
		n, known := c.batchesAt[j.sr.Stats.Generation]
		if !known {
			c.tally(false)
			continue
		}
		j.applied = n
		js = append(js, j)
	}
	// Which replies get a reference evaluation: distinct (query, state)
	// keys in order of first appearance, thinned to the budget.
	var keys []string
	seen := map[string]bool{}
	for _, j := range js {
		if k := refKey(j.rep.req, j.applied); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	chosen := map[string]bool{}
	stride := (len(keys) + c.budget - 1) / max(c.budget, 1)
	for i, k := range keys {
		if stride > 0 && i%stride == 0 {
			chosen[k] = true
		}
	}
	for _, j := range js {
		j.deep = chosen[refKey(j.rep.req, j.applied)]
	}
	// The reference only moves forward through the batch log.
	sort.SliceStable(js, func(a, b int) bool { return js[a].applied < js[b].applied })
	for _, j := range js {
		if !j.deep {
			c.tally(true) // structural checks passed above
			continue
		}
		want, err := c.reference(ctx, j.rep.req, j.applied)
		if err != nil {
			return err
		}
		c.tally(c.judge(j.rep.req, j.sr.Results, want))
	}
	return nil
}

func refKey(req *request, applied int) string {
	return fmt.Sprintf("%s|%d|%d", req.queryID, req.query, applied)
}

// wellFormed checks what holds for any top-k answer: at most k results in
// search.SortResults order.
func wellFormed(rs []searchResult) bool {
	if len(rs) > topK {
		return false
	}
	for i := 1; i < len(rs); i++ {
		a, b := rs[i-1], rs[i]
		if a.Similarity < b.Similarity || (a.Similarity == b.Similarity && a.ID >= b.ID) {
			return false
		}
	}
	return true
}

// judge compares a served answer with the reference ranking. An exact
// search must match the reference top-k ID for ID and score for score, bit
// for bit. An index-served search may miss results, so each score it does
// return must equal the reference score of that ID and its recall@k must
// reach recallFloor; want is then the full reference ranking.
func (c *checker) judge(req *request, got []searchResult, want []wfsim.Result) bool {
	if !req.indexed {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Similarity) != math.Float64bits(want[i].Similarity) {
				return false
			}
		}
		return true
	}
	score := make(map[string]float64, len(want))
	for _, w := range want {
		score[w.ID] = w.Similarity
	}
	top := want
	if len(top) > topK {
		top = top[:topK]
	}
	inTop := make(map[string]bool, len(top))
	for _, w := range top {
		inTop[w.ID] = true
	}
	hits := 0
	for _, g := range got {
		s, ok := score[g.ID]
		if !ok || math.Float64bits(s) != math.Float64bits(g.Similarity) {
			return false
		}
		if inTop[g.ID] {
			hits++
		}
	}
	recall := 1.0
	if len(top) > 0 {
		recall = float64(hits) / float64(len(top))
	}
	return recall >= recallFloor
}

// reference answers req on the plain engine with the first applied batches
// replayed.
func (c *checker) reference(ctx context.Context, req *request, applied int) ([]wfsim.Result, error) {
	key := refKey(req, applied)
	if res, ok := c.memo[key]; ok {
		return res, nil
	}
	if c.ref == nil {
		var seed []*wfsim.Workflow
		if c.preloaded {
			seed = cloneAll(c.in.base)
		}
		repo, err := wfsim.NewRepository(seed...)
		if err != nil {
			return nil, fmt.Errorf("reference repository: %w", err)
		}
		if c.ref, err = wfsim.New(repo); err != nil {
			return nil, fmt.Errorf("reference engine: %w", err)
		}
	}
	if applied < c.applied {
		return nil, fmt.Errorf("reference asked to go back from batch %d to %d", c.applied, applied)
	}
	for ; c.applied < applied; c.applied++ {
		ops := c.batches[c.applied]
		muts := make([]wfsim.Mutation, len(ops))
		for i, op := range ops {
			muts[i] = c.in.mutation(op)
		}
		if _, err := c.ref.Apply(ctx, muts...); err != nil {
			return nil, fmt.Errorf("reference replay of batch %d: %w", c.applied, err)
		}
	}
	opts := wfsim.SearchOptions{K: topK}
	if req.indexed {
		opts.K = c.ref.Size()
	}
	var res []wfsim.Result
	var err error
	if req.queryID != "" {
		res, _, err = c.ref.SearchID(ctx, req.queryID, opts)
	} else {
		res, _, err = c.ref.Search(ctx, c.in.held[req.query].Clone(), opts)
	}
	if err != nil {
		return nil, fmt.Errorf("reference search: %w", err)
	}
	c.memo[key] = res
	return res, nil
}

// durability checks process-crash durability against a server restarted
// over the data directory after a SIGKILL that followed the last
// acknowledgement: the recovered size and generation must be those the
// acknowledged batches produce, and the most recently touched workflows —
// the ones a lost log tail would take — must read back as acknowledged.
func (c *checker) durability(ctx context.Context, client *http.Client, base string, readbacks int) error {
	// The model state the acknowledged batches produce.
	state := map[string]mutOp{}
	if c.preloaded {
		for i, wf := range c.in.base {
			state[wf.ID] = mutOp{id: wf.ID, src: i, fromBase: true}
		}
	}
	var touched []string
	for _, ops := range c.batches {
		for _, op := range ops {
			if op.kind == "remove" {
				delete(state, op.id)
			} else {
				state[op.id] = op
			}
			touched = append(touched, op.id)
		}
	}
	var hz struct {
		Generation uint64 `json:"generation"`
		Workflows  int    `json:"workflows"`
	}
	status, body, err := get(ctx, client, base+"/healthz")
	if err != nil {
		return err
	}
	c.tally(status == http.StatusOK && json.Unmarshal(body, &hz) == nil &&
		hz.Workflows == len(state) && hz.Generation == c.lastGen)

	seen := map[string]bool{}
	for i := len(touched) - 1; i >= 0 && len(seen) < readbacks; i-- {
		id := touched[i]
		if seen[id] {
			continue
		}
		seen[id] = true
		status, body, err := get(ctx, client, base+"/v1/workflows/"+id)
		if err != nil {
			return err
		}
		op, present := state[id]
		if !present {
			c.tally(status == http.StatusNotFound)
			continue
		}
		var got struct {
			Workflow *wfsim.Workflow `json:"workflow"`
		}
		c.tally(status == http.StatusOK && json.Unmarshal(body, &got) == nil && got.Workflow != nil &&
			bytes.Equal(mustJSON(got.Workflow), mustJSON(c.in.workflowFor(op))))
	}
	return nil
}

func get(ctx context.Context, client *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return resp.StatusCode, body, nil
}
