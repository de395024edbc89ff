package wfsim

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/measures"
)

func testCorpus(t testing.TB) *GeneratedCorpus {
	t.Helper()
	p := TavernaProfile()
	p.Workflows = 80
	p.Clusters = 6
	c, err := GenerateCorpus(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testEngine(t testing.TB, opts ...Option) (*Engine, *GeneratedCorpus) {
	t.Helper()
	c := testCorpus(t)
	eng, err := New(c.Repo, append(testShardOpts(t), opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

// testShardOpts lets the CI matrix re-run the engine tests against the
// sharded coordinator: WFSIM_TEST_SHARDS=n prepends WithShards(n). A test's
// own explicit options still win because they apply later.
func testShardOpts(t testing.TB) []Option {
	if n := testShardCount(t); n > 0 {
		return []Option{WithShards(n)}
	}
	return nil
}

// testShardCount parses WFSIM_TEST_SHARDS (0 when unset).
func testShardCount(t testing.TB) int {
	v := os.Getenv("WFSIM_TEST_SHARDS")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		t.Fatalf("WFSIM_TEST_SHARDS=%q: want a positive integer", v)
	}
	return n
}

func TestNewValidates(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil repository accepted")
	}
	c := testCorpus(t)
	if _, err := New(c.Repo, WithDefaultMeasure("not_a_measure")); err == nil {
		t.Error("invalid default measure accepted")
	}
	if _, err := New(c.Repo, WithGEDBudget(-1, 0)); err == nil {
		t.Error("negative GED budget accepted")
	}
}

func TestSearchBasic(t *testing.T) {
	eng, _ := testEngine(t)
	query := eng.Read().Workflows()[0]
	results, stats, err := eng.Search(context.Background(), query, SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("results = %d, want 10", len(results))
	}
	if stats.Measure != DefaultMeasure {
		t.Errorf("stats.Measure = %q, want default %q", stats.Measure, DefaultMeasure)
	}
	if covered(stats) != eng.Read().Frontier().Workflows-1 || stats.Pruned != 0 || stats.Skipped != 0 {
		t.Errorf("scored %d + bounded %d (pruned %d, skipped %d), want %d pairs covered",
			stats.Scored, stats.Bounded, stats.Pruned, stats.Skipped, eng.Read().Frontier().Workflows-1)
	}
	for i, r := range results {
		if r.ID == query.ID {
			t.Error("query included in results")
		}
		if i > 0 && r.Similarity > results[i-1].Similarity {
			t.Error("results not sorted")
		}
	}
}

func TestSearchIDUnknownQuery(t *testing.T) {
	eng, _ := testEngine(t)
	if _, _, err := eng.SearchID(context.Background(), "no-such-id", SearchOptions{}); err == nil {
		t.Error("unknown query ID accepted")
	}
}

// TestSearchCancelledContext is the satellite contract: Search with an
// already-cancelled context returns promptly with ctx.Err() and leaks no
// goroutines.
func TestSearchCancelledContext(t *testing.T) {
	eng, _ := testEngine(t)
	query := eng.Read().Workflows()[0]
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	results, _, err := eng.Search(ctx, query, SearchOptions{K: 10})
	elapsed := time.Since(t0)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if results != nil {
		t.Errorf("results = %v, want nil", results)
	}
	if elapsed > time.Second {
		t.Errorf("cancelled search took %v, want prompt return", elapsed)
	}
	// The worker pool must drain: allow the runtime a moment to retire
	// goroutines, then require the count back at (or below) the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

func TestSearchExpiredDeadline(t *testing.T) {
	eng, _ := testEngine(t)
	query := eng.Read().Workflows()[0]
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := eng.Search(ctx, query, SearchOptions{K: 10}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSearchDeadlineClampsGEDBudget checks the paper's GED-timeout
// semantics surface as a context deadline: a nearer context deadline
// tightens the per-pair budget below the configured one.
func TestSearchDeadlineClampsGEDBudget(t *testing.T) {
	eng, _ := testEngine(t, WithGEDBudget(time.Hour, 4))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	m, err := eng.measureFor(ctx, "GE_np_ta_pll", nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := measureGEDDeadline(t, m)
	if cfg <= 0 || cfg > 50*time.Millisecond {
		t.Errorf("GED deadline = %v, want clamped into (0, 50ms]", cfg)
	}
	// Without a context deadline the configured budget applies.
	m, err = eng.measureFor(context.Background(), "GE_np_ta_pll", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg := measureGEDDeadline(t, m); cfg != time.Hour {
		t.Errorf("GED deadline = %v, want 1h", cfg)
	}
}

// measureGEDDeadline extracts the configured GED deadline from the internal
// structural measure (the test lives inside pkg/wfsim, so it may look).
func measureGEDDeadline(t *testing.T, m Measure) time.Duration {
	t.Helper()
	s, ok := m.(*measures.Structural)
	if !ok {
		t.Fatalf("measure %T is not *measures.Structural", m)
	}
	return s.Config().GEDDeadline
}

func TestDuplicatesAndCluster(t *testing.T) {
	eng, c := testEngine(t)
	ctx := context.Background()
	pairs, dstats, err := eng.Duplicates(ctx, 0.9, DuplicateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.Similarity < 0.9 {
			t.Errorf("pair %v below threshold", p)
		}
	}
	n := eng.Read().Frontier().Workflows
	if dstats.Measure != DefaultMeasure || covered(dstats) != n*(n-1)/2 {
		t.Errorf("duplicate stats = %+v", dstats)
	}
	minSim := 0.45
	res, err := eng.Cluster(ctx, ClusterOptions{MinSimilarity: &minSim})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, members := range res.Clusters {
		total += len(members)
	}
	if total != c.Repo.Snapshot().Size() {
		t.Errorf("clustering covers %d of %d workflows", total, c.Repo.Snapshot().Size())
	}
}

func TestDuplicatesCancelled(t *testing.T) {
	eng, _ := testEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := eng.Duplicates(ctx, 0.9, DuplicateOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := eng.Cluster(ctx, ClusterOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cluster err = %v, want context.Canceled", err)
	}
}

func TestCompareDefaultSet(t *testing.T) {
	eng, _ := testEngine(t)
	wfs := eng.Read().Workflows()
	scores, err := eng.Compare(context.Background(), wfs[0], wfs[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(CompareMeasures()) {
		t.Fatalf("scores = %d, want %d", len(scores), len(CompareMeasures()))
	}
	for _, s := range scores {
		if s.Err == nil && (s.Similarity < 0 || s.Similarity > 1) {
			t.Errorf("%s = %.4f outside [0,1]", s.Measure, s.Similarity)
		}
	}
}

func TestEngineCustomMeasure(t *testing.T) {
	eng, _ := testEngine(t, WithMeasure("always1", constantMeasure{name: "always1", v: 1}))
	results, stats, err := eng.SearchID(context.Background(), eng.Read().Workflows()[0].ID,
		SearchOptions{Measure: "always1", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Measure != "always1" {
		t.Errorf("stats.Measure = %q", stats.Measure)
	}
	for _, r := range results {
		if r.Similarity != 1 {
			t.Errorf("custom measure score = %v", r.Similarity)
		}
	}
}

func TestWithRepositoryKnowledge(t *testing.T) {
	eng, _ := testEngine(t, WithRepositoryKnowledge(0.3))
	wf := eng.Read().Workflows()[0]
	proj := eng.Project(wf)
	if proj.Size() > wf.Size() {
		t.Errorf("projection grew the workflow: %d -> %d", wf.Size(), proj.Size())
	}
	if _, _, err := eng.Search(context.Background(), wf, SearchOptions{Measure: "MS_ip_te_pll", K: 5}); err != nil {
		t.Fatal(err)
	}
}
