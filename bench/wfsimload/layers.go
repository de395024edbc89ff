package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/corpus"
	"repro/internal/ged"
	"repro/internal/index"
	"repro/internal/matching"
	"repro/internal/measures"
	"repro/internal/module"
	"repro/internal/scorecache"
	"repro/internal/search"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/symtab"
	"repro/internal/workflow"
	"repro/pkg/wfsim"
	"repro/pkg/wfsim/serve"
)

// exactSample caps how many search ops of a replay also run the exact
// reference scan (search.topk): it costs as much as the most expensive op.
const exactSample = 32

// twins are the in-process instances a traced replay drives, one per layer
// boundary, all fed the same op sequence so their states stay identical:
//
//	front  serve.Server over its own engine  (serve → wfsim → everything below)
//	eng    the same engine configuration, called directly
//	coord  a shard.Coordinator of the same shape (sharded configurations)
//	repo, idx, store, nosync  the corpus, index and storage layers on their own
//
// Because the benchmark may not edit the program, a layer is timed by
// calling its exported entry point with the op's inputs; what would be one
// nested call chain inside wfsimd becomes consecutive calls here, and each
// span's Under field keeps the containment.
type twins struct {
	s   *session
	rec *recorder
	ctx context.Context

	front   *serve.Server
	eng     *wfsim.Engine
	coord   *shard.Coordinator
	repo    *corpus.Repository
	idx     *index.Index
	store   *storage.Store
	nosync  *storage.Store
	measure measures.Measure // the default measure, undecorated

	once      map[string]float64 // one-off numbers: loads, builds, opens
	c         counters
	settingUp bool // replaying set-up: only what changes a twin's state
}

// counters are the counts taken at the span boundaries.
type counters struct {
	searches, batches   int
	reqBytes, respBytes float64
	errors              int

	scored, pruned, skipped, hits, misses int
	allocs, allocBytes                    []float64

	candidates, live []float64
	recalls          []float64
	pairsPerS        []float64

	userBytes, logBytes float64
	lastLog             int64
}

func (s *session) newTwins(ctx context.Context, rec *recorder) (*twins, error) {
	t := &twins{s: s, rec: rec, ctx: ctx, once: map[string]float64{}}
	cfg := s.cfg
	dir := func(name string) (string, error) {
		if !cfg.durable {
			return "", nil
		}
		return s.env.dir(s.wl.name + "-" + name + "-")
	}
	frontDir, err := dir("front")
	if err != nil {
		return nil, err
	}
	front, err := s.openEngine(frontDir)
	if err != nil {
		return nil, err
	}
	t.front = serve.New(front, serve.Config{})

	engDir, err := dir("eng")
	if err != nil {
		return nil, err
	}
	if t.eng, err = s.openEngine(engDir); err != nil {
		return nil, err
	}
	if t.measure, err = t.eng.ParseMeasure(""); err != nil {
		return nil, err
	}

	// The layers on their own.
	t0 := time.Now()
	if cfg.preload {
		t.repo, err = corpus.LoadFile(s.corpus)
		t.once["corpus.load_ms"] = ms(time.Since(t0))
	} else {
		t.repo, err = corpus.NewRepository()
	}
	if err != nil {
		return nil, err
	}
	if cfg.index {
		snap := t.repo.Snapshot()
		t0 = time.Now()
		t.idx = index.Build(snap)
		t.once["index.build_ms"] = ms(time.Since(t0))
		t.idx.SetGeneration(snap.Generation())
	}
	storeDir, err := dir("store")
	if err != nil {
		return nil, err
	}
	if cfg.durable {
		nosyncDir, err := dir("nosync")
		if err != nil {
			return nil, err
		}
		if t.store, err = t.openStore(storeDir, false); err != nil {
			return nil, err
		}
		if t.nosync, err = t.openStore(nosyncDir, true); err != nil {
			return nil, err
		}
		// Commit inside the repository's transaction boundary, as the
		// engine does, so the span nests where the work really happens.
		t.repo.SetCommitHook(func(gen uint64, ops []corpus.Op) error {
			var err error
			t.rec.do("storage.commit", "corpus.applybatch", func() { err = t.store.Commit(gen, ops) })
			return err
		})
	}
	if cfg.shards > 1 {
		coordDir, err := dir("coord")
		if err != nil {
			return nil, err
		}
		if t.coord, err = t.openCoordinator(coordDir); err != nil {
			return nil, err
		}
	}

	// Bring every twin to the state the server has after set-up.
	rec, t.rec, t.settingUp = t.rec, nil, true
	for _, steps := range [][]step{s.plan.ingest, s.plan.warmup} {
		if err := t.replay(steps); err != nil {
			return nil, fmt.Errorf("twin set-up: %w", err)
		}
	}
	t.rec, t.c, t.settingUp = rec, counters{}, false

	// Opening, timed from outside, and what the engine keeps live once it
	// holds the corpus. A durable configuration reopens its engine and its
	// store over what the set-up left, without a final checkpoint, as after
	// a crash. (The abandoned engine keeps its files open until the process
	// ends; Engine.Close would checkpoint and turn the log replay into a
	// snapshot load.)
	abandoned := t.eng
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	opened, err := s.openEngine(engDir)
	if err != nil {
		return nil, fmt.Errorf("open engine over the set-up state: %w", err)
	}
	t.once["wfsim.open_ms"] = ms(time.Since(t0))
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(abandoned)
	t.once["wfsim.heap_live_mb"] = float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / (1 << 20)
	if cfg.durable {
		t.eng = opened
		if err := t.store.Close(); err != nil {
			return nil, err
		}
		t0 = time.Now()
		if t.store, err = t.openStore(storeDir, false); err != nil {
			return nil, fmt.Errorf("reopen store: %w", err)
		}
		d := time.Since(t0)
		t.once["storage.open_ms"] = ms(d)
		t.once["storage.replay_records_per_s"] = float64(t.store.Stats().Recovery.ReplayedRecords) / d.Seconds()
	}
	if t.store != nil {
		t.c.lastLog = t.store.Stats().LogBytes
	}
	return t, nil
}

// openEngine builds an engine the way cmd/wfsimd does from the workload's
// flags: over the base corpus file when preloading into fresh storage, over
// an empty repository otherwise.
func (s *session) openEngine(data string) (*wfsim.Engine, error) {
	cfg := s.cfg
	preload := cfg.preload
	if preload && cfg.durable {
		has, err := wfsim.HasStoredState(data)
		if err != nil {
			return nil, err
		}
		preload = !has
	}
	var repo *wfsim.Repository
	var err error
	if preload {
		repo, err = wfsim.LoadRepository(s.corpus)
	} else {
		repo, err = wfsim.NewRepository()
	}
	if err != nil {
		return nil, err
	}
	return wfsim.New(repo, cfg.options(data)...)
}

// openStore opens the storage layer over t.repo's symbol table, recovering
// whatever the directory holds; a fresh directory under a preloaded
// repository gets the baseline snapshot the engine would write.
func (t *twins) openStore(dir string, noSync bool) (*storage.Store, error) {
	st, _, gen, err := storage.Open(dir, storage.Options{
		CompactRecords: int64(t.s.cfg.compactRecords),
		NoSync:         noSync,
		Symtab:         t.repo.Symtab(),
	})
	if err != nil {
		return nil, err
	}
	if snap := t.repo.Snapshot(); gen == 0 && snap.Size() > 0 && st.Stats().SnapshotGeneration == 0 && st.Stats().LogRecords == 0 {
		if err := st.Compact(snap.Generation(), snap.Workflows()); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// openCoordinator builds the sharded data plane as wfsim.WithShards does.
func (t *twins) openCoordinator(dir string) (*shard.Coordinator, error) {
	cfg := t.s.cfg
	ring, err := shard.NewRing(cfg.shards)
	if err != nil {
		return nil, err
	}
	if err := shard.CheckLayout(dir, cfg.shards); err != nil {
		return nil, err
	}
	seed, err := corpus.LoadFile(t.s.corpus)
	if err != nil {
		return nil, err
	}
	parts := make([][]*workflow.Workflow, cfg.shards)
	for _, wf := range seed.Snapshot().Workflows() {
		o := ring.Owner(wf.ID)
		parts[o] = append(parts[o], wf)
	}
	shards := make([]shard.Shard, cfg.shards)
	for i := range shards {
		lc := shard.LocalConfig{
			CacheSize: (cacheEntries + cfg.shards - 1) / cfg.shards,
			Seed:      parts[i],
			Symtab:    seed.Symtab(),
			Dir:       shard.ShardDir(dir, i),
			Storage:   storage.Options{CompactRecords: int64(cfg.compactRecords)},
		}
		if cfg.index {
			lc.MinShared = 1
		}
		if shards[i], err = shard.NewLocal(i, lc); err != nil {
			return nil, err
		}
	}
	return shard.NewCoordinator(shards)
}

// replay runs every request of the steps through the twins, in order.
func (t *twins) replay(steps []step) error {
	for _, st := range steps {
		for _, req := range st {
			var err error
			if req.kind == kindBatch {
				err = t.batch(req)
			} else {
				err = t.search(req)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// serveHTTP sends req through the front twin and counts bytes and errors.
func (t *twins) serveHTTP(name string, req *request) {
	hr := httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body))
	hr.Header.Set("Content-Type", req.ctype)
	w := httptest.NewRecorder()
	t.rec.do(name, "", func() { t.front.ServeHTTP(w, hr) })
	t.c.reqBytes += float64(len(req.body))
	t.c.respBytes += float64(w.Body.Len())
	if w.Code != http.StatusOK {
		t.c.errors++
	}
}

// search replays one search op through every layer it touches.
func (t *twins) search(req *request) error {
	var err error
	fail := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}
	t.rec.root(func() {
		t.c.searches++
		t.serveHTTP("serve.search", req)

		// What serve decodes before it can call the engine.
		var wire struct {
			QueryID string          `json:"query_id"`
			Query   *wfsim.Workflow `json:"query"`
			K       int             `json:"k"`
		}
		t.rec.do("workflow.decode", "", func() { fail(json.Unmarshal(req.body, &wire)) })
		if err != nil {
			return
		}
		if wire.Query != nil {
			probe := wire.Query.Clone()
			t.rec.do("workflow.resolve", "", func() { probe.Resolve(t.repo.Symtab()) })
		}

		var res []wfsim.Result
		var st wfsim.Stats
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t.rec.do("wfsim.search", "serve.search", func() {
			var e error
			if wire.QueryID != "" {
				res, st, e = t.eng.SearchID(t.ctx, wire.QueryID, wfsim.SearchOptions{K: wire.K})
			} else {
				res, st, e = t.eng.Search(t.ctx, wire.Query, wfsim.SearchOptions{K: wire.K})
			}
			fail(e)
		})
		runtime.ReadMemStats(&m1)
		t.c.allocs = append(t.c.allocs, float64(m1.Mallocs-m0.Mallocs))
		t.c.allocBytes = append(t.c.allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		t.c.scored += st.Scored
		t.c.pruned += st.Pruned
		t.c.skipped += st.Skipped
		t.c.hits += st.CacheHits
		t.c.misses += st.CacheMisses
		if t.settingUp {
			return // the caches of both engines are warm; the rest are probes
		}

		// The corpus layer: pin the view the scan runs over.
		var snap *corpus.Snapshot
		t.rec.do("corpus.snapshot", "wfsim.search", func() { snap = t.repo.Snapshot() })
		query := wire.Query
		if query == nil {
			query = snap.Get(wire.QueryID)
		}
		if query == nil {
			fail(fmt.Errorf("twin corpus lacks query %q", wire.QueryID))
			return
		}

		if t.coord != nil {
			fail(t.shardSearch(query, wire.K))
		}
		if t.idx != nil {
			under := "wfsim.search"
			if t.coord != nil {
				under = "shard.search"
			}
			var cands []int
			t.rec.do("index.candidates", under, func() { cands = t.idx.Candidates(query, 1) })
			t.c.candidates = append(t.c.candidates, float64(len(cands)))
			t.c.live = append(t.c.live, float64(t.idx.Size()))
		}

		// The exact scan with the undecorated measure: the per-pair kernel
		// plus top-k, and the reference for recall. It is the engine's own
		// child only where nothing can be cached, pruned or sharded.
		if t.c.searches <= exactSample {
			under := ""
			if req.query >= 0 && t.coord == nil && t.idx == nil {
				under = "wfsim.search"
			}
			var exact []search.Result
			t0 := time.Now()
			t.rec.do("search.topk", under, func() {
				var e error
				exact, _, e = search.TopK(t.ctx, query, snap, t.measure, search.Options{K: wire.K})
				fail(e)
			})
			t.c.pairsPerS = append(t.c.pairsPerS, float64(snap.Size())/time.Since(t0).Seconds())
			got := map[string]bool{}
			for _, r := range res {
				got[r.ID] = true
			}
			hit := 0
			for _, r := range exact {
				if got[r.ID] {
					hit++
				}
			}
			if len(exact) > 0 {
				t.c.recalls = append(t.c.recalls, float64(hit)/float64(len(exact)))
			}
		}
	})
	return err
}

// shardSearch replays a search on the coordinator twin: the scatter-gather
// as a whole, then the merge on its own over the per-shard lists.
func (t *twins) shardSearch(query *workflow.Workflow, k int) error {
	v := t.coord.View()
	q := shard.Query{Query: query, K: k}
	if owner := v.Owner(query.ID); owner.Get(query.ID) != nil {
		// Score the shard's own object, as SearchID does, so the pair
		// scores may use the shard caches.
		q.Query = owner.Get(query.ID)
		q.Cacheable, q.QueryGen = true, owner.Generation()
	}
	var err error
	t.rec.do("shard.search", "wfsim.search", func() {
		_, _, err = t.coord.Search(t.ctx, v, shard.NewScanPrep(t.measure, 0), q)
	})
	if err != nil {
		return err
	}
	prep := shard.NewScanPrep(t.measure, 0)
	lists := make([][]search.Result, 0, len(v.Pins()))
	for _, pin := range v.Pins() {
		l, _, err := pin.Search(t.ctx, prep, q)
		if err != nil {
			return err
		}
		lists = append(lists, l)
	}
	t.rec.do("shard.merge", "shard.search", func() { shard.MergeTopK(lists, k) })
	return nil
}

// corpusOps materialises a batch as fresh corpus ops: every twin owns its
// workflow objects, because resolving stamps them with its symbol table.
func (t *twins) corpusOps(ops []mutOp) []corpus.Op {
	out := make([]corpus.Op, len(ops))
	for i, op := range ops {
		switch op.kind {
		case "add":
			out[i] = corpus.Op{Kind: corpus.OpAdd, ID: op.id, Workflow: t.s.in.workflowFor(op)}
		case "replace":
			out[i] = corpus.Op{Kind: corpus.OpReplace, ID: op.id, Workflow: t.s.in.workflowFor(op)}
		default:
			out[i] = corpus.Op{Kind: corpus.OpRemove, ID: op.id}
		}
	}
	return out
}

// batch replays one mutation batch through every layer it touches.
func (t *twins) batch(req *request) error {
	muts := make([]wfsim.Mutation, len(req.ops))
	for i, op := range req.ops {
		muts[i] = t.s.in.mutation(op)
	}
	var coordOps []corpus.Op
	if t.coord != nil {
		coordOps = t.corpusOps(req.ops)
	}
	ops, probes := t.corpusOps(req.ops), t.corpusOps(req.ops)
	sharded := t.coord != nil
	under := func(name string) string { // the plain layers are the engine's children only unsharded
		if sharded {
			return ""
		}
		return name
	}
	var err error
	fail := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}
	t.rec.root(func() {
		t.c.batches++
		t.c.userBytes += float64(len(req.body))
		t.serveHTTP("serve.batch", req)
		t.rec.do("workflow.decode", "", func() { fail(decodeBatch(req)) })
		t.rec.do("wfsim.apply", "serve.batch", func() {
			_, e := t.eng.ApplyVector(t.ctx, muts...)
			fail(e)
		})
		if sharded {
			t.rec.do("shard.apply", "wfsim.apply", func() {
				_, e := t.coord.Apply(coordOps)
				fail(e)
			})
		}
		// Interning on fresh objects, before the repository has seen them.
		t.rec.do("workflow.resolve", "", func() {
			for _, op := range probes {
				if op.Workflow != nil {
					op.Workflow.Resolve(t.repo.Symtab())
				}
			}
		})
		var gen uint64
		t.rec.do("corpus.applybatch", under("wfsim.apply"), func() {
			var e error
			gen, e = t.repo.ApplyBatch(ops) // the commit hook nests storage.commit in here
			fail(e)
		})
		if err != nil {
			return
		}
		var snap *corpus.Snapshot
		t.rec.do("corpus.snapshot", under("wfsim.apply"), func() { snap = t.repo.Snapshot() })
		if t.idx != nil {
			t.rec.do("index.apply", under("wfsim.apply"), func() { fail(t.idx.Apply(ops, gen)) })
		}
		if t.store == nil {
			return
		}
		t.rec.do("storage.commit_nosync", "", func() { fail(t.nosync.Commit(gen, ops)) })
		if lb := t.store.Stats().LogBytes; lb > t.c.lastLog {
			t.c.logBytes += float64(lb - t.c.lastLog)
		}
		if t.store.ShouldCompact() {
			t.rec.do("storage.compact", under("wfsim.apply"), func() { fail(t.store.Compact(gen, snap.Workflows())) })
		}
		if t.nosync.ShouldCompact() {
			fail(t.nosync.Compact(gen, snap.Workflows()))
		}
		t.c.lastLog = t.store.Stats().LogBytes
	})
	return err
}

// decodeBatch decodes a batch body the way serve does.
func decodeBatch(req *request) error {
	if req.ctype == "application/json" {
		var b struct {
			Ops []wireOp `json:"ops"`
		}
		return json.Unmarshal(req.body, &b)
	}
	dec := json.NewDecoder(bytes.NewReader(req.body))
	for dec.More() {
		var op wireOp
		if err := dec.Decode(&op); err != nil {
			return err
		}
	}
	return nil
}

// replayTwins builds twins, replays the closed schedule through them and
// returns the twins and the replay's wall time.
func (s *session) replayTwins(ctx context.Context, rec *recorder) (*twins, time.Duration, error) {
	t, err := s.newTwins(ctx, rec)
	if err != nil {
		return nil, 0, err
	}
	cache0 := t.eng.CacheStats()
	t0 := time.Now()
	if err := t.replay(s.plan.closed); err != nil {
		return nil, 0, err
	}
	wall := time.Since(t0)
	cache1 := t.eng.CacheStats()
	hits, misses := float64(cache1.Hits-cache0.Hits), float64(cache1.Misses-cache0.Misses)
	if hits+misses > 0 {
		t.once["scorecache.hit_share"] = hits / (hits + misses)
	}
	// Every miss is followed by a Put; Puts that did not grow the cache
	// evicted.
	if ev := misses - float64(cache1.Entries-cache0.Entries); ev > 0 {
		t.once["scorecache.evictions"] = ev
	}
	return t, wall, nil
}

// perLayer is the traced run. The child process still runs — once, with a
// tenth of the closed schedule — for the numbers only a process has
// (time to healthy, recovery, peak RSS, the open loop's quantiles and the
// generator's lateness). Then the same tenth is replayed in process, once
// without and once with span recording, and the spans are folded into the
// per-layer metrics.
func (s *session) perLayer(ctx context.Context, tracePath string) (*result, error) {
	m, err := s.run(ctx)
	if err != nil {
		return nil, err
	}
	s.srv.kill()

	rctx, cancel := context.WithTimeout(ctx, phaseTimeout)
	defer cancel()
	_, wallOff, err := s.replayTwins(rctx, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}
	rec := newRecorder()
	t, wallOn, err := s.replayTwins(rctx, rec)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	if err := checkNesting(rec.spans, 0.02); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if err := writeTrace(tracePath, traceFile{Workload: s.wl.name, Seed: s.in.seed, Spans: rec.spans}); err != nil {
		return nil, err
	}

	total, self := layerTimes(rec.spans)
	med := func(xs []float64, div float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs) / div
	}
	const us, msec = 1e3, 1e6
	c := &t.c
	perOp := func(n int) float64 {
		if c.searches == 0 {
			return 0
		}
		return float64(n) / float64(c.searches)
	}
	open := openStats(m.open)
	out := map[string]metric{
		"serve.search_ms":      {med(total["serve.search"], msec), "ms"},
		"serve.search_self_ms": {med(self["serve.search"], msec), "ms"},
		"serve.batch_ms":       {med(total["serve.batch"], msec), "ms"},
		"serve.batch_self_ms":  {med(self["serve.batch"], msec), "ms"},
		"serve.req_bytes":      {c.reqBytes / float64(max(c.searches+c.batches, 1)), "bytes"},
		"serve.resp_bytes":     {c.respBytes / float64(max(c.searches+c.batches, 1)), "bytes"},
		"serve.errors":         {float64(c.errors), "count"},

		"wfsim.search_ms":         {med(total["wfsim.search"], msec), "ms"},
		"wfsim.search_self_ms":    {med(self["wfsim.search"], msec), "ms"},
		"wfsim.apply_ms":          {med(total["wfsim.apply"], msec), "ms"},
		"wfsim.apply_self_ms":     {med(self["wfsim.apply"], msec), "ms"},
		"wfsim.open_ms":           {t.once["wfsim.open_ms"], "ms"},
		"wfsim.allocs_per_search": {med(c.allocs, 1), "count"},
		"wfsim.bytes_per_search":  {med(c.allocBytes, 1), "bytes"},
		"wfsim.heap_live_mb":      {t.once["wfsim.heap_live_mb"], "MB"},
		"wfsim.scored_per_op":     {perOp(c.scored), "count"},
		"wfsim.pruned_per_op":     {perOp(c.pruned), "count"},
		"wfsim.skipped_per_op":    {perOp(c.skipped), "count"},
		"wfsim.cache_hit_share":   {float64(c.hits) / float64(max(c.hits+c.misses, 1)), "share"},

		"shard.search_ms": {med(total["shard.search"], msec), "ms"},
		"shard.apply_ms":  {med(total["shard.apply"], msec), "ms"},
		"shard.merge_us":  {med(total["shard.merge"], us), "us"},
		"shard.size_skew": {t.sizeSkew(), "ratio"},

		"search.topk_ms":     {med(total["search.topk"], msec), "ms"},
		"search.pairs_per_s": {med(c.pairsPerS, 1), "1/s"},

		"index.candidates_us":        {med(total["index.candidates"], us), "us"},
		"index.candidates_per_query": {stats.Mean(c.candidates), "count"},
		"index.prune_share":          {pruneShare(c.candidates, c.live), "share"},
		"index.recall_at_10":         {stats.Mean(c.recalls), "share"},
		"index.apply_us":             {med(total["index.apply"], us), "us"},
		"index.build_ms":             {t.once["index.build_ms"], "ms"},

		"scorecache.hit_share": {t.once["scorecache.hit_share"], "share"},
		"scorecache.evictions": {t.once["scorecache.evictions"], "count"},

		"corpus.applybatch_us": {med(self["corpus.applybatch"], us), "us"},
		"corpus.snapshot_ns":   {med(total["corpus.snapshot"], 1), "ns"},
		"corpus.load_ms":       {t.once["corpus.load_ms"], "ms"},

		"storage.commit_us":            {med(total["storage.commit"], us), "us"},
		"storage.commit_nosync_us":     {med(total["storage.commit_nosync"], us), "us"},
		"storage.bytes_per_user_byte":  {c.logBytes / max(c.userBytes, 1), "ratio"},
		"storage.compactions":          {float64(len(total["storage.compact"])), "count"},
		"storage.compact_ms":           {med(total["storage.compact"], msec), "ms"},
		"storage.open_ms":              {t.once["storage.open_ms"], "ms"},
		"storage.replay_records_per_s": {t.once["storage.replay_records_per_s"], "1/s"},

		"symtab.size":         {float64(t.repo.Symtab().Len()), "count"},
		"workflow.resolve_us": {med(total["workflow.resolve"], us), "us"},
		"workflow.decode_us":  {med(total["workflow.decode"], us), "us"},

		"wfsimd.healthy_s":             {s.healthy.Seconds(), "s"},
		"wfsimd.recovery_s":            {s.recovery.Seconds(), "s"},
		"wfsimd.rss_peak_mb":           {m.rssPeakMB, "MB"},
		"loadgen.open_p50_ms":          {open.p50, "ms"},
		"loadgen.open_p95_ms":          {open.p95, "ms"},
		"loadgen.lateness_p95_ms":      {open.latenessP95, "ms"},
		"loadgen.trace_overhead_share": {(wallOn - wallOff).Seconds() / wallOff.Seconds(), "share"},
		"loadgen.slowdown":             {m.slowdown, "ratio"},
	}
	for name, v := range s.kernelProbes(t) {
		out[name] = v
	}
	res := s.endToEnd(m)
	res.Metrics = out
	return res, nil
}

func pruneShare(candidates, live []float64) float64 {
	var c, l float64
	for i := range candidates {
		c += candidates[i]
		l += live[i]
	}
	if l == 0 {
		return 0
	}
	return 1 - c/l
}

// sizeSkew is the largest shard's size over the mean shard size.
func (t *twins) sizeSkew() float64 {
	if t.coord == nil {
		return 0
	}
	var sum, top float64
	infos := t.coord.Infos()
	for _, info := range infos {
		sum += float64(info.Workflows)
		top = max(top, float64(info.Workflows))
	}
	if sum == 0 {
		return 0
	}
	return top / (sum / float64(len(infos)))
}

// kernelProbes times the per-pair kernels and the small shared structures
// on a fixed, seeded sample of base-corpus pairs. They do not depend on the
// workload: they are the baseline a kernel change is read against.
func (s *session) kernelProbes(t *twins) map[string]metric {
	r := rand.New(rand.NewSource(s.in.seed + 4))
	tab := symtab.New()
	base := cloneAll(s.in.base)
	var interns int
	t0 := time.Now()
	for _, wf := range base {
		wf.Resolve(tab)
		interns += 1 + 3*len(wf.Modules)
	}
	internNS := float64(time.Since(t0)) / float64(interns)

	type pair struct{ a, b *workflow.Workflow }
	pairs := make([]pair, s.sz.probePairs)
	for i := range pairs {
		pairs[i] = pair{base[r.Intn(len(base))], base[r.Intn(len(base))]}
	}
	// perPair returns the mean microseconds f takes on the first n pairs.
	perPair := func(n int, f func(i int, p pair)) float64 {
		t0 := time.Now()
		for i, p := range pairs[:n] {
			f(i, p)
		}
		return float64(time.Since(t0)) / float64(n) / 1e3
	}
	compare := func(m measures.Measure) float64 {
		return perPair(len(pairs), func(_ int, p pair) { m.Compare(p.a, p.b) })
	}

	project := t.eng.Project
	weights := make([]matching.Weights, len(pairs))
	wmUS := perPair(len(pairs), func(i int, p pair) {
		weights[i], _ = module.WeightMatrix(project(p.a), project(p.b), module.PLL(), module.TypeEquivalence)
	})
	memo := module.NewSimMemo()
	for _, p := range pairs {
		module.WeightMatrixMemo(project(p.a), project(p.b), module.PLL(), module.TypeEquivalence, memo)
	}
	mwUS := perPair(len(pairs), func(i int, _ pair) { matching.MaxWeight(weights[i]) })
	gedUS := perPair(min(s.sz.gedPairs, len(pairs)), func(_ int, p pair) {
		g1, g2 := labeledGraphs(p.a, p.b)
		ged.Distance(g1, g2, ged.Options{BeamWidth: wfsim.DefaultGEDBeamWidth, Deadline: 50 * time.Millisecond})
	})

	cache := scorecache.New(cacheEntries)
	keys := make([]scorecache.Key, cacheEntries/2)
	for i := range keys {
		keys[i] = scorecache.PairKey(wfsim.DefaultMeasure, uint32(1+r.Intn(1<<20)), uint32(1+r.Intn(1<<20)), 1, 0)
	}
	t0 = time.Now()
	for i, k := range keys {
		cache.Put(k, float64(i))
	}
	putNS := float64(time.Since(t0)) / float64(len(keys))
	t0 = time.Now()
	for _, k := range keys {
		cache.Get(k)
	}
	getNS := float64(time.Since(t0)) / float64(len(keys))

	return map[string]metric{
		"measures.compare_us.MS_ip_te_pll": {compare(t.measure), "us"},
		"measures.compare_us.BW":           {compare(measures.BagOfWords{}), "us"},
		"measures.compare_us.labelsets":    {compare(measures.LabelSets{}), "us"},
		"module.weightmatrix_us":           {wmUS, "us"},
		"module.memo_entries":              {float64(memo.Len()), "count"},
		"matching.maxweight_us":            {mwUS, "us"},
		"ged.distance_us":                  {gedUS, "us"},
		"scorecache.get_ns":                {getNS, "ns"},
		"scorecache.put_ns":                {putNS, "ns"},
		"symtab.intern_ns":                 {internNS, "ns"},
	}
}

// labeledGraphs builds the GED inputs as measures' GE configurations do:
// modules mapped onto each other by a maximum-weight matching of at least
// the default label threshold share a node label, all others are unique.
func labeledGraphs(a, b *workflow.Workflow) (*ged.Graph, *ged.Graph) {
	w, _ := module.WeightMatrix(a, b, module.PLL(), module.TypeEquivalence)
	g1, g2 := ged.NewGraph(a.Size()), ged.NewGraph(b.Size())
	for i := range g1.Labels {
		g1.Labels[i] = i + 1
	}
	for j := range g2.Labels {
		g2.Labels[j] = -(j + 1)
	}
	shared := a.Size() + b.Size() + 1
	for _, p := range matching.MaxWeight(w) {
		if p.Weight >= measures.DefaultMappingLabelThreshold {
			g1.Labels[p.I], g2.Labels[p.J] = shared, shared
			shared++
		}
	}
	for _, e := range a.Edges {
		g1.AddEdge(e.From, e.To)
	}
	for _, e := range b.Edges {
		g2.AddEdge(e.From, e.To)
	}
	return g1, g2
}
