package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/wfsim"
	"repro/pkg/wfsim/serve"
)

// chainWorkflow builds a valid chain workflow over the given module labels.
func chainWorkflow(id string, labels ...string) *wfsim.Workflow {
	w := wfsim.NewWorkflow(id)
	prev := -1
	for _, l := range labels {
		i := w.AddModule(&wfsim.Module{Label: l, Type: wfsim.TypeWSDL})
		if prev >= 0 {
			_ = w.AddEdge(prev, i)
		}
		prev = i
	}
	return w
}

// slowMeasure spends d per pair, so request deadlines have something to cut
// short.
type slowMeasure struct{ d time.Duration }

func (m slowMeasure) Name() string { return "slow" }
func (m slowMeasure) Compare(a, b *wfsim.Workflow) (float64, error) {
	time.Sleep(m.d)
	return 0.5, nil
}

// newTestServer builds an engine over a small corpus and mounts the serve
// handler on an httptest server.
func newTestServer(t *testing.T, cfg serve.Config, opts ...wfsim.Option) (*httptest.Server, *wfsim.Engine) {
	t.Helper()
	repo, err := wfsim.NewRepository(
		chainWorkflow("w1", "fetch_sequence", "align_genomes"),
		chainWorkflow("w2", "fetch_sequence", "render_plot"),
		chainWorkflow("w3", "call_variants", "export_report"),
	)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := wfsim.New(repo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(eng, cfg))
	t.Cleanup(ts.Close)
	return ts, eng
}

// postJSON posts v as JSON and decodes the response body into out (when
// non-nil), returning the status code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode response %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

type wireStats struct {
	Measure     string  `json:"measure"`
	Scored      int     `json:"scored"`
	Skipped     int     `json:"skipped"`
	Bounded     int     `json:"bounded"`
	CacheHits   int     `json:"cache_hits"`
	CacheMisses int     `json:"cache_misses"`
	Generation  uint64  `json:"generation"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

type wireSearch struct {
	Results []struct {
		ID         string  `json:"id"`
		Similarity float64 `json:"similarity"`
	} `json:"results"`
	Stats wireStats `json:"stats"`
	Error string    `json:"error"`
}

// TestRoundTrip is the service acceptance test: ingest over HTTP (JSON batch
// and NDJSON stream), then search, duplicates, compare, cluster, fetch and
// stats all observe the mutations, with every read reporting the generation
// and cache counters it was served under.
func TestRoundTrip(t *testing.T) {
	ts, eng := newTestServer(t, serve.Config{}, wfsim.WithScoreCache(1024), wfsim.WithIndex(1))
	genBefore := eng.Read().Frontier().Generation

	// JSON batch: one add, one replace, one remove — transactional.
	var br struct {
		Generation uint64 `json:"generation"`
		Ops        int    `json:"ops"`
	}
	status := postJSON(t, ts.URL+"/v1/workflows:batch", map[string]any{
		"ops": []map[string]any{
			{"op": "add", "workflow": chainWorkflow("w4", "fetch_sequence", "annotate_pathways")},
			{"op": "replace", "workflow": chainWorkflow("w3", "fetch_sequence", "export_report")},
			{"op": "remove", "id": "w2"},
		},
	}, &br)
	if status != http.StatusOK {
		t.Fatalf("batch status = %d", status)
	}
	if br.Generation != genBefore+1 || br.Ops != 3 {
		t.Fatalf("batch response = %+v, want generation %d, 3 ops", br, genBefore+1)
	}

	// NDJSON stream: two more adds in one transactional batch.
	var nd bytes.Buffer
	for _, wf := range []*wfsim.Workflow{
		chainWorkflow("w5", "fetch_sequence", "cluster_expression"),
		chainWorkflow("w6", "plot_phylogeny", "render_tree"),
	} {
		op, _ := json.Marshal(map[string]any{"op": "add", "workflow": wf})
		nd.Write(op)
		nd.WriteByte('\n')
	}
	resp, err := http.Post(ts.URL+"/v1/workflows:batch", "application/x-ndjson", &nd)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ndjson batch status = %d", resp.StatusCode)
	}

	// Search by repository ID: w1, w3, w4, w5 share "fetch_sequence".
	var sr wireSearch
	if status := postJSON(t, ts.URL+"/v1/search", map[string]any{"query_id": "w1", "k": 10}, &sr); status != http.StatusOK {
		t.Fatalf("search status = %d (%s)", status, sr.Error)
	}
	if sr.Stats.Generation != genBefore+2 {
		t.Errorf("search generation = %d, want %d", sr.Stats.Generation, genBefore+2)
	}
	got := map[string]bool{}
	for _, r := range sr.Results {
		got[r.ID] = true
	}
	if got["w2"] {
		t.Error("search served the removed workflow w2")
	}
	if !got["w4"] || !got["w5"] {
		t.Errorf("search misses ingested workflows: %v", got)
	}

	// Inline-query search: a workflow that never entered the repository.
	if status := postJSON(t, ts.URL+"/v1/search", map[string]any{
		"query": chainWorkflow("external", "fetch_sequence", "align_genomes"),
		"k":     3,
	}, &sr); status != http.StatusOK {
		t.Fatalf("inline search status = %d (%s)", status, sr.Error)
	}
	if len(sr.Results) == 0 {
		t.Error("inline search returned nothing")
	}

	// Duplicates: warm the cache, then verify the repeated call reports
	// hits — the response carries the call's cache counters. A pair the
	// measure's bound puts below the threshold is never looked up, cold or
	// warm; every other pair is.
	var dr struct {
		Pairs []struct {
			A, B       string
			Similarity float64
		} `json:"pairs"`
		Stats wireStats `json:"stats"`
		Error string    `json:"error"`
	}
	pairCount := 5 * 4 / 2 // 5 workflows after the two batches
	if status := postJSON(t, ts.URL+"/v1/duplicates", map[string]any{"threshold": 0.2}, &dr); status != http.StatusOK {
		t.Fatalf("duplicates status = %d (%s)", status, dr.Error)
	}
	cold := dr.Stats
	// Earlier searches may have warmed some pairs; every pair is accounted
	// for either way.
	if cold.CacheHits+cold.CacheMisses+cold.Bounded != pairCount {
		t.Errorf("cold duplicates: %d hits + %d misses + %d bounded, want sum %d", cold.CacheHits, cold.CacheMisses, cold.Bounded, pairCount)
	}
	if status := postJSON(t, ts.URL+"/v1/duplicates", map[string]any{"threshold": 0.2}, &dr); status != http.StatusOK {
		t.Fatalf("warm duplicates status = %d", status)
	}
	if dr.Stats.CacheHits+dr.Stats.Bounded != pairCount || dr.Stats.CacheMisses != 0 || dr.Stats.Bounded != cold.Bounded {
		t.Errorf("warm duplicates: %d hits + %d bounded / %d misses, want sum %d (%d bounded) / 0",
			dr.Stats.CacheHits, dr.Stats.Bounded, dr.Stats.CacheMisses, pairCount, cold.Bounded)
	}

	// Compare and cluster.
	var cr struct {
		Scores []struct {
			Measure    string  `json:"measure"`
			Similarity float64 `json:"similarity"`
			Error      string  `json:"error"`
		} `json:"scores"`
		Generation uint64 `json:"generation"`
	}
	if status := postJSON(t, ts.URL+"/v1/compare", map[string]any{
		"a_id": "w1", "b_id": "w4", "measures": []string{"MS_pll", "BW"},
	}, &cr); status != http.StatusOK {
		t.Fatalf("compare status = %d", status)
	}
	if len(cr.Scores) != 2 || cr.Generation != genBefore+2 {
		t.Errorf("compare response = %+v", cr)
	}
	var cl struct {
		Clusters   [][]string `json:"clusters"`
		Generation uint64     `json:"generation"`
	}
	if status := postJSON(t, ts.URL+"/v1/cluster", map[string]any{"measure": "MS_pll"}, &cl); status != http.StatusOK {
		t.Fatalf("cluster status = %d", status)
	}
	members := 0
	for _, c := range cl.Clusters {
		members += len(c)
	}
	if members != 5 {
		t.Errorf("clustering covers %d workflows, want 5", members)
	}

	// Fetch one workflow; then a miss.
	resp, err = http.Get(ts.URL + "/v1/workflows/w4")
	if err != nil {
		t.Fatal(err)
	}
	var wfResp struct {
		Workflow   *wfsim.Workflow `json:"workflow"`
		Generation uint64          `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wfResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wf := wfResp.Workflow
	if resp.StatusCode != http.StatusOK || wf == nil || wf.ID != "w4" || len(wf.Modules) != 2 {
		t.Errorf("workflow fetch: status %d, wf %+v", resp.StatusCode, wf)
	}
	if wfResp.Generation == 0 {
		t.Error("workflow fetch carries no generation stamp")
	}
	resp, err = http.Get(ts.URL + "/v1/workflows/no-such-id")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing workflow status = %d, want 404", resp.StatusCode)
	}

	// Stats reflect the mutation stream.
	var st struct {
		Generation uint64 `json:"generation"`
		Workflows  int    `json:"workflows"`
		Batches    int64  `json:"batches"`
		OpsApplied int64  `json:"ops_applied"`
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Generation != genBefore+2 || st.Workflows != 5 || st.Batches != 2 || st.OpsApplied != 5 {
		t.Errorf("stats = %+v", st)
	}
}

// TestStatsReportSymbolsAndLabelSim: /v1/stats sizes the two structures that
// live as long as the process and grow with traffic. A search fills the
// label-similarity memo; an inline query with a label the corpus has never
// seen interns it (as ingest would), and a repeat of the same query adds
// nothing.
func TestStatsReportSymbolsAndLabelSim(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{})
	type sized struct {
		Symbols  int `json:"symbols"`
		LabelSim struct {
			Entries  int `json:"entries"`
			Capacity int `json:"capacity"`
		} `json:"label_sim"`
	}
	stats := func() sized {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st sized
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	boot := stats()
	if boot.Symbols == 0 || boot.LabelSim.Entries != 0 || boot.LabelSim.Capacity == 0 {
		t.Fatalf("stats at boot = %+v, want symbols > 0, no memo entries yet, a capacity", boot)
	}
	search := map[string]any{"query": chainWorkflow("q", "fetch_sequence", "never_seen_label"), "measure": "MS_np_ta_pll"}
	var sr wireSearch
	if code := postJSON(t, ts.URL+"/v1/search", search, &sr); code != http.StatusOK {
		t.Fatalf("inline search status = %d (%s)", code, sr.Error)
	}
	first := stats()
	if first.Symbols <= boot.Symbols {
		t.Errorf("symbols %d -> %d: the inline query's unseen label was not interned", boot.Symbols, first.Symbols)
	}
	if first.LabelSim.Entries == 0 || first.LabelSim.Entries > first.LabelSim.Capacity {
		t.Errorf("label_sim after a search = %+v, want 0 < entries <= capacity", first.LabelSim)
	}
	if code := postJSON(t, ts.URL+"/v1/search", search, &sr); code != http.StatusOK {
		t.Fatalf("repeat search status = %d (%s)", code, sr.Error)
	}
	if again := stats(); again != first {
		t.Errorf("a repeated query moved the sizes: %+v -> %+v", first, again)
	}
}

// TestBatchTransactionality: a batch with one bad op must change nothing and
// come back as a conflict.
func TestBatchTransactionality(t *testing.T) {
	ts, eng := newTestServer(t, serve.Config{})
	genBefore := eng.Read().Frontier().Generation

	var er struct {
		Error string `json:"error"`
	}
	status := postJSON(t, ts.URL+"/v1/workflows:batch", map[string]any{
		"ops": []map[string]any{
			{"op": "add", "workflow": chainWorkflow("w9", "ok_module")},
			{"op": "remove", "id": "no-such-id"},
		},
	}, &er)
	if status != http.StatusConflict || er.Error == "" {
		t.Errorf("bad batch: status %d, error %q", status, er.Error)
	}
	if eng.Read().Frontier().Generation != genBefore {
		t.Error("failed batch bumped the generation")
	}
	if eng.Read().Get("w9") != nil {
		t.Error("failed batch partially applied")
	}

	// A duplicate-ID add is a conflict too (stale client state, retryable
	// after a refetch)...
	if status := postJSON(t, ts.URL+"/v1/workflows:batch", map[string]any{
		"ops": []map[string]any{{"op": "add", "workflow": chainWorkflow("w1", "dup_module")}},
	}, nil); status != http.StatusConflict {
		t.Errorf("duplicate add: status %d, want 409", status)
	}
	// ...while malformed batches are 400s — retrying them can never succeed.
	for name, body := range map[string]any{
		"empty batch": map[string]any{"ops": []any{}},
		"unknown op":  map[string]any{"ops": []map[string]any{{"op": "upsert", "id": "w1"}}},
		"add sans wf": map[string]any{"ops": []map[string]any{{"op": "add"}}},
		"invalid wf": map[string]any{"ops": []map[string]any{{"op": "add", "workflow": map[string]any{
			"id":      "bad",
			"modules": []map[string]any{{"id": "m1", "label": "x", "type": "wsdl"}},
			"edges":   []map[string]any{{"from": 0, "to": 9}},
		}}}},
	} {
		if status := postJSON(t, ts.URL+"/v1/workflows:batch", body, nil); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
	}
	if resp, err := http.Post(ts.URL+"/v1/workflows:batch", "application/json", strings.NewReader("{not json")); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("malformed JSON: status %d", resp.StatusCode)
		}
	}
}

// TestRequestValidation covers read-path input errors.
func TestRequestValidation(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{})
	cases := []struct {
		path string
		body any
	}{
		{"/v1/search", map[string]any{}},                                            // neither query_id nor query
		{"/v1/search", map[string]any{"query_id": "w1", "query": map[string]any{}}}, // both
		{"/v1/search", map[string]any{"query_id": "no-such-id"}},
		{"/v1/search", map[string]any{"query_id": "w1", "measure": "XX_bogus"}},
		{"/v1/search", map[string]any{"query_id": "w1", "bogus_field": 1}},
		{"/v1/duplicates", map[string]any{"threshold": 0.0}},
		{"/v1/duplicates", map[string]any{"threshold": 1.5}},
		{"/v1/compare", map[string]any{"a_id": "w1"}},
		{"/v1/compare", map[string]any{"a_id": "w1", "b_id": "no-such-id"}},
		{"/v1/cluster", map[string]any{"measure": "nope_nope"}},
	}
	for _, c := range cases {
		var er struct {
			Error string `json:"error"`
		}
		if status := postJSON(t, ts.URL+c.path, c.body, &er); status != http.StatusBadRequest {
			t.Errorf("%s %v: status %d (%s), want 400", c.path, c.body, status, er.Error)
		}
	}
}

// TestDeadlineBoundsResponse: a request deadline bounds the whole call — a
// scan over a deliberately slow measure is cut off near the deadline instead
// of running to completion, and reports a timeout.
func TestDeadlineBoundsResponse(t *testing.T) {
	// One scoring worker, so the outcome does not depend on the core count:
	// with a worker per pair the whole scan would finish in one 300ms wave,
	// and a scan that completed is (correctly) never failed for a deadline
	// that expired meanwhile.
	ts, _ := newTestServer(t, serve.Config{},
		wfsim.WithMeasure("slow", slowMeasure{d: 300 * time.Millisecond}),
		wfsim.WithConcurrency(1))

	start := time.Now()
	var sr wireSearch
	status := postJSON(t, ts.URL+"/v1/search", map[string]any{
		"query_id": "w1", "measure": "slow", "deadline_ms": 100,
	}, &sr)
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Errorf("slow search under 100ms deadline: status %d (%s), want 504", status, sr.Error)
	}
	// 2 non-query pairs x 300ms = 600ms unbounded; the deadline must cut the
	// scan off after the first pair (slack for CI schedulers).
	if elapsed > 550*time.Millisecond {
		t.Errorf("deadline ignored: call took %v", elapsed)
	}
}

// TestDeadlineClampsGEDBudget: the per-request deadline tightens the
// engine's per-pair GED budget — a graph-edit-distance search under a tiny
// deadline returns promptly (all pairs failed fast and were skipped, or the
// call timed out), never taking anywhere near the engine's own generous GED
// budget.
func TestDeadlineClampsGEDBudget(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{},
		wfsim.WithGEDBudget(60*time.Second, 1<<14))

	// Generous deadline: GED completes and scores the corpus.
	var sr wireSearch
	if status := postJSON(t, ts.URL+"/v1/search", map[string]any{
		"query_id": "w1", "measure": "GE_ip_te_pll", "deadline_ms": 10_000,
	}, &sr); status != http.StatusOK {
		t.Fatalf("GED search status = %d (%s)", status, sr.Error)
	}
	if sr.Stats.Measure != "GE_ip_te_pll" || len(sr.Results) == 0 {
		t.Errorf("GED search = %+v", sr)
	}

	// Ingest two large workflows whose pairwise GED at beam width 2^14 is
	// far beyond a 50ms budget, then search under a 50ms deadline: the
	// clamped per-pair budget makes expensive pairs fail fast (skipped), or
	// the call context expires between pairs — either way the response is
	// bounded by the deadline, not by the engine's 60s GED budget.
	big := func(id string) *wfsim.Workflow {
		labels := make([]string, 60)
		for i := range labels {
			labels[i] = fmt.Sprintf("%s_stage_%c%c", id, 'a'+i%26, 'a'+(i*7)%26)
		}
		return chainWorkflow(id, labels...)
	}
	if status := postJSON(t, ts.URL+"/v1/workflows:batch", map[string]any{
		"ops": []map[string]any{
			{"op": "add", "workflow": big("big1")},
			{"op": "add", "workflow": big("big2")},
		},
	}, nil); status != http.StatusOK {
		t.Fatalf("big ingest status = %d", status)
	}
	start := time.Now()
	status := postJSON(t, ts.URL+"/v1/search", map[string]any{
		"query_id": "big1", "measure": "GE_ip_te_pll", "deadline_ms": 50,
	}, &sr)
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Errorf("tiny deadline: call took %v, GED budget not clamped", elapsed)
	}
	switch status {
	case http.StatusGatewayTimeout: // context expired mid-scan
	case http.StatusOK: // expensive pairs timed out per-pair and were skipped
		if sr.Stats.Skipped == 0 {
			t.Errorf("tiny deadline scored every pair normally: %+v", sr.Stats)
		}
	default:
		t.Errorf("tiny deadline status = %d (%s)", status, sr.Error)
	}
}

// TestConcurrentIngestAndSearch hammers the service with writers posting
// transactional batches while readers search and fetch stats; under -race
// this is the service-level torn-state detector. Every response must report
// a generation at least as new as any generation observed before the request
// was issued.
func TestConcurrentIngestAndSearch(t *testing.T) {
	ts, eng := newTestServer(t, serve.Config{},
		wfsim.WithIndex(1), wfsim.WithScoreCache(512), wfsim.WithRepositoryKnowledge(0))
	genStart := eng.Read().Frontier().Generation

	const writers, readers, rounds = 3, 4, 15
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := fmt.Sprintf("w%d-r%d", wr, i)
				status := postJSON(t, ts.URL+"/v1/workflows:batch", map[string]any{
					"ops": []map[string]any{
						{"op": "add", "workflow": chainWorkflow(id, "fetch_sequence", fmt.Sprintf("step_%d_%d", wr, i))},
					},
				}, nil)
				if status != http.StatusOK {
					t.Errorf("writer %d round %d: status %d", wr, i, status)
					return
				}
			}
		}(wr)
	}

	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				genBefore := eng.Read().Frontier().Generation
				var sr wireSearch
				status := postJSON(t, ts.URL+"/v1/search", map[string]any{"query_id": "w1", "k": 5}, &sr)
				if status != http.StatusOK {
					t.Errorf("reader: status %d (%s)", status, sr.Error)
					return
				}
				// Snapshots are pinned after genBefore was observed and
				// generations are monotone: serving an older snapshot would
				// be a torn read.
				if sr.Stats.Generation < genBefore {
					t.Errorf("response generation %d older than pre-request generation %d", sr.Stats.Generation, genBefore)
					return
				}
				for _, res := range sr.Results {
					if res.ID == "" || res.Similarity < 0 || res.Similarity > 1 {
						t.Errorf("torn result: %+v", res)
						return
					}
				}
			}
		}()
	}

	// Writers finish first; then release the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		var st struct {
			Batches int64 `json:"batches"`
		}
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Batches >= writers*rounds {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	<-done

	if got, want := eng.Read().Frontier().Generation, genStart+writers*rounds; got != want {
		t.Errorf("final generation = %d, want %d (one bump per batch)", got, want)
	}
	if got, want := eng.Read().Frontier().Workflows, 3+writers*rounds; got != want {
		t.Errorf("final corpus size = %d, want %d", got, want)
	}
}

// TestFetchStampsTheGenerationItRead: GET /v1/workflows/{id} returns a
// workflow and the generation of the one view it was read from. A writer
// keeps replacing w1 with a copy titled with the generation its commit
// produces, so every fetched body must carry its response's generation.
func TestFetchStampsTheGenerationItRead(t *testing.T) {
	ts, eng := newTestServer(t, serve.Config{})
	ctx := context.Background()
	replace := func() error {
		wf := chainWorkflow("w1", "fetch_sequence", "align_genomes")
		want := eng.Read().Frontier().Generation + 1 // the only writer: the next commit's generation
		wf.Annotations.Title = strconv.FormatUint(want, 10)
		gen, err := eng.Apply(ctx, wfsim.ReplaceWorkflow(wf))
		if err == nil && gen != want {
			err = fmt.Errorf("replace committed generation %d, want %d", gen, want)
		}
		return err
	}
	if err := replace(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				writerErr <- nil
				return
			default:
			}
			if err := replace(); err != nil {
				writerErr <- err
				return
			}
		}
	}()
	const fetches = 3000
	torn := 0
	for i := 0; i < fetches; i++ {
		resp, err := http.Get(ts.URL + "/v1/workflows/w1")
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Workflow   *wfsim.Workflow `json:"workflow"`
			Generation uint64          `json:"generation"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || got.Workflow == nil {
			t.Fatalf("fetch %d: status %d, err %v", i, resp.StatusCode, err)
		}
		if got.Workflow.Annotations.Title != strconv.FormatUint(got.Generation, 10) {
			torn++
		}
	}
	close(stop)
	if err := <-writerErr; err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Errorf("%d of %d fetches stamped a generation other than the one their workflow was read at", torn, fetches)
	}
}

// TestStatsAndHealthzReadOneView: GET /v1/stats and GET /healthz report the
// generation, the generation vector and the workflow count of one pinned
// view, at one shard and two. A writer alternates adding and removing x, one
// shard per commit, so every consistent answer has workflows - base ==
// generation % 2, and a generation that is the sum of its vector; at two
// shards every per_shard block carries its element of that vector, and the
// blocks' workflows sum to the response's.
func TestStatsAndHealthzReadOneView(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ts, eng := newTestServer(t, serve.Config{}, wfsim.WithShards(shards))
			ctx := context.Background()
			base := eng.Read().Frontier().Workflows
			stop := make(chan struct{})
			writerErr := make(chan error, 1)
			go func() {
				for i := 0; ; i++ {
					select {
					case <-stop:
						writerErr <- nil
						return
					default:
					}
					m := wfsim.RemoveWorkflow("x")
					if i%2 == 0 {
						m = wfsim.AddWorkflow(chainWorkflow("x", "fetch_sequence"))
					}
					if _, err := eng.Apply(ctx, m); err != nil {
						writerErr <- err
						return
					}
					runtime.Gosched() // on one proc, let the pollers in between commits
				}
			}()
			const polls = 1000
			torn := map[string]int{}
			for i := 0; i < polls; i++ {
				path := []string{"/v1/stats", "/healthz"}[i%2]
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Generation  uint64   `json:"generation"`
					Generations []uint64 `json:"generations"`
					Workflows   int      `json:"workflows"`
					PerShard    []struct {
						Generation uint64 `json:"generation"`
						Workflows  int    `json:"workflows"`
					} `json:"per_shard"`
				}
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
				}
				ok := got.Workflows-base == int(got.Generation%2)
				if path == "/v1/stats" && shards > 1 {
					var sum uint64
					for _, g := range got.Generations {
						sum += g
					}
					ok = ok && len(got.Generations) == shards && sum == got.Generation
					blocks := 0
					for i, ps := range got.PerShard {
						ok = ok && i < len(got.Generations) && ps.Generation == got.Generations[i]
						blocks += ps.Workflows
					}
					ok = ok && len(got.PerShard) == shards && blocks == got.Workflows
				}
				if !ok {
					torn[path]++
				}
			}
			close(stop)
			if err := <-writerErr; err != nil {
				t.Fatal(err)
			}
			if len(torn) != 0 {
				t.Errorf("responses mixing two views, of %d polls per path: %v", polls/2, torn)
			}
		})
	}
}

// TestHealthz: liveness reports status and generation.
func TestHealthz(t *testing.T) {
	ts, eng := newTestServer(t, serve.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Generation != eng.Read().Frontier().Generation {
		t.Errorf("healthz = %d %+v", resp.StatusCode, h)
	}
}

// TestStatsExposesStorage: with durable storage attached, /v1/stats carries a
// storage block (log size, snapshot generation, boot recovery counters);
// without it the key is omitted entirely.
func TestStatsExposesStorage(t *testing.T) {
	ts, eng := newTestServer(t, serve.Config{}, wfsim.WithStorage(t.TempDir()))
	t.Cleanup(func() { eng.Close() })

	status := postJSON(t, ts.URL+"/v1/workflows:batch", map[string]any{
		"ops": []map[string]any{
			{"op": "add", "workflow": chainWorkflow("w4", "durable_step")},
		},
	}, nil)
	if status != http.StatusOK {
		t.Fatalf("batch status = %d", status)
	}

	var st struct {
		Storage *struct {
			Dir                string `json:"dir"`
			LogBytes           int64  `json:"log_bytes"`
			LogRecords         int64  `json:"log_records"`
			SnapshotGeneration uint64 `json:"snapshot_generation"`
			Recovery           struct {
				Generation uint64 `json:"generation"`
			} `json:"recovery"`
		} `json:"storage"`
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Storage == nil {
		t.Fatal("stats response has no storage block despite WithStorage")
	}
	if st.Storage.LogRecords != 1 || st.Storage.LogBytes == 0 {
		t.Errorf("storage stats after one batch = %+v, want 1 nonempty log record", st.Storage)
	}
	// The pre-populated test repository became the baseline snapshot.
	if st.Storage.SnapshotGeneration != 0 {
		t.Errorf("baseline snapshot generation = %d, want 0", st.Storage.SnapshotGeneration)
	}

	// A storage-less server must omit the block.
	ts2, _ := newTestServer(t, serve.Config{})
	var raw map[string]json.RawMessage
	resp, err = http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := raw["storage"]; ok {
		t.Error("stats response carries a storage block without WithStorage")
	}
}

// TestShardedService: a server over a sharded engine reports the per-shard
// generation vector on batch commits and reads, and /v1/stats carries the
// shard count plus per-shard blocks alongside the aggregates.
func TestShardedService(t *testing.T) {
	ts, eng := newTestServer(t, serve.Config{},
		wfsim.WithShards(3), wfsim.WithIndex(1), wfsim.WithScoreCache(1024))
	if eng.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", eng.Shards())
	}

	var batch struct {
		Generation  uint64   `json:"generation"`
		Generations []uint64 `json:"generations"`
		Ops         int      `json:"ops"`
	}
	status := postJSON(t, ts.URL+"/v1/workflows:batch", map[string]any{
		"ops": []map[string]any{
			{"op": "add", "workflow": chainWorkflow("s1", "fetch_sequence", "align_genomes")},
			{"op": "add", "workflow": chainWorkflow("s2", "fetch_sequence", "align_genomes")},
			{"op": "add", "workflow": chainWorkflow("s3", "fetch_sequence", "align_genomes")},
			{"op": "remove", "id": "w3"},
		},
	}, &batch)
	if status != http.StatusOK {
		t.Fatalf("batch status = %d", status)
	}
	if len(batch.Generations) != 3 {
		t.Fatalf("batch generations = %v, want 3-element vector", batch.Generations)
	}
	var sum uint64
	for _, g := range batch.Generations {
		sum += g
	}
	if batch.Generation != sum || sum == 0 {
		t.Errorf("batch generation %d != vector sum %d", batch.Generation, sum)
	}

	// A conflicting batch fails atomically across shards: the vector must
	// not move even though the batch's first ops land on other shards.
	status = postJSON(t, ts.URL+"/v1/workflows:batch", map[string]any{
		"ops": []map[string]any{
			{"op": "add", "workflow": chainWorkflow("s4", "render_plot")},
			{"op": "add", "workflow": chainWorkflow("s1", "dup")},
		},
	}, nil)
	if status != http.StatusConflict {
		t.Fatalf("conflicting batch status = %d, want 409", status)
	}
	for i, g := range eng.Read().Frontier().Generations {
		if g != batch.Generations[i] {
			t.Errorf("shard %d generation %d after failed batch, want %d", i, g, batch.Generations[i])
		}
	}

	var sr struct {
		Results []struct {
			ID string `json:"id"`
		} `json:"results"`
		Stats struct {
			Generation  uint64   `json:"generation"`
			Generations []uint64 `json:"generations"`
		} `json:"stats"`
	}
	status = postJSON(t, ts.URL+"/v1/search", map[string]any{"query_id": "s1", "k": 5}, &sr)
	if status != http.StatusOK {
		t.Fatalf("search status = %d", status)
	}
	if len(sr.Results) == 0 || len(sr.Stats.Generations) != 3 || sr.Stats.Generation != sum {
		t.Errorf("sharded search = %+v, want results and a 3-element generation vector summing to %d", sr, sum)
	}

	var st struct {
		Shards      int      `json:"shards"`
		Generations []uint64 `json:"generations"`
		Workflows   int      `json:"workflows"`
		PerShard    []struct {
			ID         int               `json:"id"`
			Generation uint64            `json:"generation"`
			Workflows  int               `json:"workflows"`
			Cache      map[string]uint64 `json:"cache"`
		} `json:"per_shard"`
		Index *struct {
			Live int `json:"live"`
		} `json:"index"`
		Cache map[string]uint64 `json:"cache"`
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Shards != 3 || len(st.Generations) != 3 || len(st.PerShard) != 3 {
		t.Fatalf("sharded stats = %+v, want 3 shards with vector and per-shard blocks", st)
	}
	wfTotal := 0
	for i, ps := range st.PerShard {
		if ps.ID != i {
			t.Errorf("per_shard[%d].id = %d", i, ps.ID)
		}
		wfTotal += ps.Workflows
	}
	if wfTotal != st.Workflows || st.Workflows != eng.Read().Frontier().Workflows {
		t.Errorf("per-shard workflows sum %d, aggregate %d, engine %d", wfTotal, st.Workflows, eng.Read().Frontier().Workflows)
	}
	if st.Index == nil || st.Index.Live != eng.Read().Frontier().Workflows {
		t.Errorf("aggregate index block = %+v, want live = %d", st.Index, eng.Read().Frontier().Workflows)
	}
	// The cache blocks carry what sizing -cache needs: evictions to read
	// against entries, beside the hit/miss counters.
	for _, block := range []map[string]uint64{st.Cache, st.PerShard[0].Cache} {
		for _, key := range []string{"hits", "misses", "evictions", "entries"} {
			if _, ok := block[key]; !ok {
				t.Errorf("cache stats block %v lacks %q", block, key)
			}
		}
	}

	// Unsharded servers omit the shard fields.
	ts2, _ := newTestServer(t, serve.Config{})
	var raw map[string]json.RawMessage
	resp, err = http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"shards", "generations", "per_shard"} {
		if _, ok := raw[key]; ok {
			t.Errorf("unsharded stats response carries %q", key)
		}
	}
	// So do the read and batch responses: one shard's vector would only
	// repeat "generation".
	for path, body := range map[string]any{
		"/v1/search":          map[string]any{"query_id": "w1"},
		"/v1/duplicates":      map[string]any{"threshold": 0.1},
		"/v1/cluster":         map[string]any{},
		"/v1/workflows:batch": map[string]any{"ops": []any{map[string]any{"op": "remove", "id": "w3"}}},
	} {
		var out struct {
			Generations json.RawMessage            `json:"generations"`
			Stats       map[string]json.RawMessage `json:"stats"`
		}
		if status := postJSON(t, ts2.URL+path, body, &out); status != http.StatusOK {
			t.Fatalf("%s: status %d", path, status)
		}
		if _, ok := out.Stats["generations"]; ok || out.Generations != nil {
			t.Errorf("unsharded %s response carries a generation vector", path)
		}
	}
}
