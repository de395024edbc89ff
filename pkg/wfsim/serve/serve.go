// Package serve is the long-lived HTTP/JSON front-end over a wfsim.Engine:
// the similarity library turned into a service that many concurrent clients
// can mutate and query — the living-repository setting of Starlinger et al.
// at service scale, in the spirit of long-running query services with
// bounded per-request response times.
//
// Endpoints (all JSON):
//
//	POST /v1/search            top-k similarity search (by query_id or inline query)
//	POST /v1/compare           pairwise scores under a measure set
//	POST /v1/duplicates        near-duplicate pairs at a threshold
//	POST /v1/cluster           functional clustering of the repository
//	POST /v1/workflows:batch   transactional mutation batch over Engine.Apply
//	                           (JSON {"ops": [...]} or streaming NDJSON, one op per line)
//	GET  /v1/workflows/{id}    fetch one workflow
//	GET  /v1/stats             engine + server counters
//	GET  /healthz              liveness
//
// Every read handler answers from one Engine.Read and reports the generation
// of that pinned view plus the call's score-cache hit/miss counters, so
// clients can correlate results with the mutation stream: every response
// body embeds a stamp, built from the Reader it was read from (or from the
// vector a batch committed), and writeJSON sends nothing else. A search's stats
// account for every live workflow but the query: "scored", "bounded" (left
// unscored by an exact score bound; the result is the full scan's), "pruned"
// (left out by the label index — a heuristic that only measures without such
// a bound use, so it is absent under the default Module Sets measure even on
// an engine built WithIndex) and "skipped" (the measure failed on the pair). Per-request
// deadlines (request field "deadline_ms", default/ceiling set by Config)
// bound the whole call and clamp the per-pair GED budget — a slow
// graph-edit-distance pair fails fast instead of blowing the response time.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/pkg/wfsim"
)

// Config tunes a Server. The zero value is usable: requests without a
// deadline get DefaultDeadline, and no request may exceed MaxDeadline.
type Config struct {
	// DefaultDeadline applies when a request carries no deadline_ms
	// (default 30s). It bounds the call context and therefore clamps the
	// per-pair GED budget.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines (default 2m).
	MaxDeadline time.Duration
	// MaxBodyBytes caps request bodies (default 32 MiB). Batch ingest of
	// large corpora should stream NDJSON rather than grow one JSON array.
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	return c
}

// Server is the HTTP front-end. Build one with New and mount it (it
// implements http.Handler); it is safe for concurrent use — reads are
// snapshot-pinned and mutation batches serialize through Engine.Apply.
type Server struct {
	eng *wfsim.Engine
	cfg Config
	mux *http.ServeMux

	started  time.Time
	requests atomic.Int64 // HTTP requests served
	batches  atomic.Int64 // successful mutation batches
	ops      atomic.Int64 // mutations committed across batches
}

// New builds a Server over eng.
func New(eng *wfsim.Engine, cfg Config) *Server {
	s := &Server{eng: eng, cfg: cfg.withDefaults(), mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("POST /v1/search", s.handleSearch)
	s.mux.HandleFunc("POST /v1/compare", s.handleCompare)
	s.mux.HandleFunc("POST /v1/duplicates", s.handleDuplicates)
	s.mux.HandleFunc("POST /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("POST /v1/workflows:batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/workflows/{id}", s.handleGetWorkflow)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// stamp is the generation a response body was read or committed at: the
// engine's generation (the sum across shards) and, on two or more shards,
// the per-shard vector. Two functions build one: stampOf, from the Reader a
// handler answered from, and stampVector, from the vector a batch
// committed.
type stamp struct {
	Generation  uint64   `json:"generation"`
	Generations []uint64 `json:"generations,omitempty"`
}

// stampOf stamps a body read from rd.
func stampOf(rd wfsim.Reader) stamp { return stampVector(rd.Frontier().Generations) }

// stampVector stamps a body with a per-shard generation vector. The vector
// is dropped (omitempty) on a one-shard engine, where its single element
// would only repeat "generation".
func stampVector(gens []uint64) stamp {
	var st stamp
	for _, g := range gens {
		st.Generation += g
	}
	if len(gens) > 1 {
		st.Generations = gens
	}
	return st
}

// response is a body writeJSON sends: a struct that embeds a stamp (or, for
// search and duplicates, carries one in its stats).
type response interface{ stamped() stamp }

func (s stamp) stamped() stamp { return s }

// errorPayload is the uniform error envelope; it reports no read, so it
// carries no stamp and only writeError sends it.
type errorPayload struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v response) { encode(w, status, v) }

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	encode(w, status, errorPayload{Error: fmt.Sprintf(format, args...)})
}

func encode(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) //wfsimvet:ignore errpath status and headers are already on the wire; there is no channel left to report an encode failure on
}

// writeReadError maps a read-path failure: an expired or cancelled request
// deadline is a timeout, everything else a bad request (unknown measure,
// unknown workflow ID, malformed options).
func writeReadError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded: %v", err)
		return
	}
	writeError(w, http.StatusBadRequest, "%v", err)
}

// decodeBody decodes one JSON request body into v, rejecting trailing data
// and unknown fields (misspelled options should fail loudly, not silently).
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("decode request: trailing data after JSON body")
	}
	return nil
}

// contextFor derives the request context honoring the deadline_ms request
// field: missing or zero uses the default deadline, anything above the cap
// is clamped. The deadline bounds the whole call and tightens the per-pair
// GED budget through the engine.
func (s *Server) contextFor(r *http.Request, deadlineMillis int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if deadlineMillis > 0 {
		// Capped in milliseconds before the conversion, whose product
		// overflows from about 9.2e12 ms up into a deadline already past.
		d = time.Duration(min(deadlineMillis, s.cfg.MaxDeadline.Milliseconds())) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return context.WithTimeout(r.Context(), d)
}

// statsPayload mirrors wfsim.Stats over the wire. Its stamp is the pinned
// view the call was served from; CacheHits/CacheMisses are the call's
// score-cache counters.
type statsPayload struct {
	Measure     string `json:"measure"`
	Scored      int    `json:"scored"`
	Skipped     int    `json:"skipped"`
	Bounded     int    `json:"bounded,omitempty"`
	Pruned      int    `json:"pruned,omitempty"`
	CacheHits   int    `json:"cache_hits"`
	CacheMisses int    `json:"cache_misses"`
	stamp
	ElapsedMS float64 `json:"elapsed_ms"`
}

// statsOf is the stats block of a call rd served.
func statsOf(rd wfsim.Reader, st wfsim.Stats) statsPayload {
	return statsPayload{
		Measure:     st.Measure,
		Scored:      st.Scored,
		Skipped:     st.Skipped,
		Bounded:     st.Bounded,
		Pruned:      st.Pruned,
		CacheHits:   st.CacheHits,
		CacheMisses: st.CacheMisses,
		stamp:       stampOf(rd),
		ElapsedMS:   float64(st.Elapsed) / float64(time.Millisecond),
	}
}

// --- search ---

type searchRequest struct {
	// QueryID names a repository workflow as the query; Query carries an
	// inline workflow instead. Exactly one must be set.
	QueryID       string          `json:"query_id,omitempty"`
	Query         *wfsim.Workflow `json:"query,omitempty"`
	Measure       string          `json:"measure,omitempty"`
	K             int             `json:"k,omitempty"`
	MinSimilarity *float64        `json:"min_similarity,omitempty"`
	Exact         bool            `json:"exact,omitempty"`
	IncludeQuery  bool            `json:"include_query,omitempty"`
	DeadlineMS    int64           `json:"deadline_ms,omitempty"`
}

type resultPayload struct {
	ID         string  `json:"id"`
	Similarity float64 `json:"similarity"`
}

type searchResponse struct {
	Results []resultPayload `json:"results"`
	Stats   statsPayload    `json:"stats"`
}

func (r searchResponse) stamped() stamp { return r.Stats.stamp }

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if (req.QueryID == "") == (req.Query == nil) {
		writeError(w, http.StatusBadRequest, "exactly one of query_id and query must be set")
		return
	}
	ctx, cancel := s.contextFor(r, req.DeadlineMS)
	defer cancel()
	opts := wfsim.SearchOptions{
		Measure:       req.Measure,
		K:             req.K,
		MinSimilarity: req.MinSimilarity,
		Exact:         req.Exact,
		IncludeQuery:  req.IncludeQuery,
	}
	rd := s.eng.Read()
	var (
		results []wfsim.Result
		stats   wfsim.Stats
		err     error
	)
	if req.QueryID != "" {
		results, stats, err = rd.SearchID(ctx, req.QueryID, opts)
	} else {
		if err := req.Query.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, "invalid query workflow: %v", err)
			return
		}
		results, stats, err = rd.Search(ctx, req.Query, opts)
	}
	if err != nil {
		writeReadError(w, err)
		return
	}
	resp := searchResponse{Results: make([]resultPayload, len(results)), Stats: statsOf(rd, stats)}
	for i, res := range results {
		resp.Results[i] = resultPayload{ID: res.ID, Similarity: res.Similarity}
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- compare ---

type compareRequest struct {
	AID        string   `json:"a_id"`
	BID        string   `json:"b_id"`
	Measures   []string `json:"measures,omitempty"`
	DeadlineMS int64    `json:"deadline_ms,omitempty"`
}

type scorePayload struct {
	Measure    string  `json:"measure"`
	Similarity float64 `json:"similarity"`
	Error      string  `json:"error,omitempty"`
}

type compareResponse struct {
	Scores []scorePayload `json:"scores"`
	stamp
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req compareRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.AID == "" || req.BID == "" {
		writeError(w, http.StatusBadRequest, "a_id and b_id are required")
		return
	}
	ctx, cancel := s.contextFor(r, req.DeadlineMS)
	defer cancel()
	rd := s.eng.Read()
	scores, err := rd.CompareIDs(ctx, req.AID, req.BID, req.Measures...)
	if err != nil {
		writeReadError(w, err)
		return
	}
	resp := compareResponse{Scores: make([]scorePayload, len(scores)), stamp: stampOf(rd)}
	for i, sc := range scores {
		resp.Scores[i] = scorePayload{Measure: sc.Measure, Similarity: sc.Similarity}
		if sc.Err != nil {
			resp.Scores[i].Error = sc.Err.Error()
			resp.Scores[i].Similarity = 0
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- duplicates ---

type duplicatesRequest struct {
	Threshold  float64 `json:"threshold"`
	Measure    string  `json:"measure,omitempty"`
	DeadlineMS int64   `json:"deadline_ms,omitempty"`
}

type pairPayload struct {
	A          string  `json:"a"`
	B          string  `json:"b"`
	Similarity float64 `json:"similarity"`
}

type duplicatesResponse struct {
	Pairs []pairPayload `json:"pairs"`
	Stats statsPayload  `json:"stats"`
}

func (r duplicatesResponse) stamped() stamp { return r.Stats.stamp }

func (s *Server) handleDuplicates(w http.ResponseWriter, r *http.Request) {
	var req duplicatesRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Threshold <= 0 || req.Threshold > 1 {
		writeError(w, http.StatusBadRequest, "threshold %v out of range (0, 1]", req.Threshold)
		return
	}
	ctx, cancel := s.contextFor(r, req.DeadlineMS)
	defer cancel()
	rd := s.eng.Read()
	pairs, stats, err := rd.Duplicates(ctx, req.Threshold, wfsim.DuplicateOptions{Measure: req.Measure})
	if err != nil {
		writeReadError(w, err)
		return
	}
	resp := duplicatesResponse{Pairs: make([]pairPayload, len(pairs)), Stats: statsOf(rd, stats)}
	for i, p := range pairs {
		resp.Pairs[i] = pairPayload{A: p.A, B: p.B, Similarity: p.Similarity}
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- cluster ---

type clusterRequest struct {
	Measure       string   `json:"measure,omitempty"`
	MinSimilarity *float64 `json:"min_similarity,omitempty"`
	SingleLinkage bool     `json:"single_linkage,omitempty"`
	DeadlineMS    int64    `json:"deadline_ms,omitempty"`
}

type clusterResponse struct {
	Measure  string     `json:"measure"`
	Clusters [][]string `json:"clusters"`
	Skipped  int        `json:"skipped"`
	stamp
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	var req clusterRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := s.contextFor(r, req.DeadlineMS)
	defer cancel()
	rd := s.eng.Read()
	res, err := rd.Cluster(ctx, wfsim.ClusterOptions{
		Measure:       req.Measure,
		MinSimilarity: req.MinSimilarity,
		SingleLinkage: req.SingleLinkage,
	})
	if err != nil {
		writeReadError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, clusterResponse{
		Measure:  res.Measure,
		Clusters: res.Clusters,
		Skipped:  res.Skipped,
		stamp:    stampOf(rd),
	})
}

// --- mutation batch ---

// batchOp is one mutation over the wire: {"op": "add"|"replace", "workflow":
// {...}} or {"op": "remove", "id": "..."}.
type batchOp struct {
	Op       string          `json:"op"`
	ID       string          `json:"id,omitempty"`
	Workflow *wfsim.Workflow `json:"workflow,omitempty"`
}

type batchRequest struct {
	Ops []batchOp `json:"ops"`
}

type batchResponse struct {
	// The stamp is the post-batch per-shard generation vector the batch
	// committed, and its sum.
	stamp
	// Ops is the number of mutations in the committed batch.
	Ops int `json:"ops"`
}

func (op batchOp) toMutation(i int) (wfsim.Mutation, error) {
	switch strings.ToLower(op.Op) {
	case "add":
		if op.Workflow == nil {
			return wfsim.Mutation{}, fmt.Errorf("op %d: add needs a workflow", i)
		}
		return wfsim.AddWorkflow(op.Workflow), nil
	case "replace":
		if op.Workflow == nil {
			return wfsim.Mutation{}, fmt.Errorf("op %d: replace needs a workflow", i)
		}
		return wfsim.ReplaceWorkflow(op.Workflow), nil
	case "remove":
		if op.ID == "" {
			return wfsim.Mutation{}, fmt.Errorf("op %d: remove needs an id", i)
		}
		return wfsim.RemoveWorkflow(op.ID), nil
	default:
		return wfsim.Mutation{}, fmt.Errorf("op %d: unknown op %q (want add, replace or remove)", i, op.Op)
	}
}

// handleBatch ingests one transactional mutation batch. Two encodings:
//
//   - application/json (default): {"ops": [{...}, ...]}
//   - application/x-ndjson: one op object per line, streamed; the batch is
//     everything until EOF and still commits all-or-nothing.
//
// Either way the whole batch goes through Engine.Apply: it commits under a
// single new generation or not at all, and concurrent reads keep their
// pinned snapshots.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var ops []batchOp
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil && (mt == "application/x-ndjson" || mt == "application/ndjson") {
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		for {
			var op batchOp
			if err := dec.Decode(&op); err == io.EOF {
				break
			} else if err != nil {
				writeError(w, http.StatusBadRequest, "decode ndjson op %d: %v", len(ops), err)
				return
			}
			ops = append(ops, op)
		}
	} else {
		var req batchRequest
		if err := decodeBody(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		ops = req.Ops
	}
	if len(ops) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	muts := make([]wfsim.Mutation, len(ops))
	for i, op := range ops {
		m, err := op.toMutation(i)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		muts[i] = m
	}
	gens, err := s.eng.ApplyVector(r.Context(), muts...)
	if err != nil {
		// The batch was rejected atomically: repository, index and caches
		// are untouched. ID conflicts (stale client state, retryable after
		// a refetch) are 409s; structurally invalid workflows and other
		// malformed batches are 400s; a dead request context is a timeout.
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "%v", err)
		case errors.Is(err, wfsim.ErrNotFound) || errors.Is(err, wfsim.ErrDuplicateID):
			writeError(w, http.StatusConflict, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	s.batches.Add(1)
	s.ops.Add(int64(len(ops)))
	writeJSON(w, http.StatusOK, batchResponse{stamp: stampVector(gens), Ops: len(ops)})
}

// --- workflow fetch, stats, health ---

// workflowResponse wraps a fetched workflow with the generation it was read
// at, so a client interleaving fetches with mutations can tell which state
// it observed.
type workflowResponse struct {
	Workflow *wfsim.Workflow `json:"workflow"`
	stamp
}

func (s *Server) handleGetWorkflow(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rd := s.eng.Read()
	wf := rd.Get(id)
	if wf == nil {
		writeError(w, http.StatusNotFound, "workflow %q not found", id)
		return
	}
	writeJSON(w, http.StatusOK, workflowResponse{Workflow: wf, stamp: stampOf(rd)})
}

// statsResponse reports the engine's state. The stamp, Shards, Workflows and
// each PerShard block's generation and workflows come from one Engine.Read;
// the counter blocks (Index, Cache, Storage, the per-shard ones and the rest)
// are read live, each on its own, and may reflect later commits.
type statsResponse struct {
	stamp
	// Shards is the shard count of an engine of two or more shards; omitted
	// on one shard.
	Shards    int `json:"shards,omitempty"`
	Workflows int `json:"workflows"`
	// Index, Cache and Storage are cross-shard aggregates; PerShard holds
	// the per-shard breakdown (omitted on one shard, where it would repeat
	// them). Symbols and LabelSim size the two process-lifetime structures
	// that grow with traffic: the symbol table and the similarity memo of
	// every attribute compared by edit distance (named label_sim for
	// compatibility; it holds more than labels).
	Index             *wfsim.IndexStats   `json:"index,omitempty"`
	Cache             wfsim.CacheStats    `json:"cache"`
	Storage           *wfsim.StorageStats `json:"storage,omitempty"`
	PerShard          []wfsim.ShardInfo   `json:"per_shard,omitempty"`
	Symbols           int                 `json:"symbols"`
	LabelSim          wfsim.LabelSimStats `json:"label_sim"`
	ProjectorRebuilds int                 `json:"projector_rebuilds"`
	UptimeMS          float64             `json:"uptime_ms"`
	Requests          int64               `json:"requests"`
	Batches           int64               `json:"batches"`
	OpsApplied        int64               `json:"ops_applied"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	rd := s.eng.Read()
	f := rd.Frontier()
	resp := statsResponse{
		stamp:             stampOf(rd),
		Workflows:         f.Workflows,
		Cache:             s.eng.CacheStats(),
		Symbols:           s.eng.Symbols(),
		LabelSim:          s.eng.LabelSimStats(),
		ProjectorRebuilds: s.eng.ProjectorRebuilds(),
		UptimeMS:          float64(time.Since(s.started)) / float64(time.Millisecond),
		Requests:          s.requests.Load(),
		Batches:           s.batches.Load(),
		OpsApplied:        s.ops.Load(),
	}
	if n := len(f.Generations); n > 1 {
		resp.Shards = n
		// On one shard the aggregate blocks below are the per-shard detail.
		resp.PerShard = rd.ShardStats()
	}
	if ist, ok := s.eng.IndexStats(); ok {
		resp.Index = &ist
	}
	if sst, ok := s.eng.StorageStats(); ok {
		resp.Storage = &sst
	}
	writeJSON(w, http.StatusOK, resp)
}

type healthzResponse struct {
	Status string `json:"status"`
	stamp
	Workflows int `json:"workflows"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rd := s.eng.Read()
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:    "ok",
		stamp:     stampOf(rd),
		Workflows: rd.Frontier().Workflows,
	})
}
