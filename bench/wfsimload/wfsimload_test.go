package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/pkg/wfsim"
)

const smokeSeed = 7

// testEnv builds wfsimd once for the whole package.
func testEnv(t *testing.T) *env {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	e, err := newEnv(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

// TestSmoke runs all four workloads, untraced and traced, at smoke size and
// checks that every metric BENCHMARK.json names is printed with a finite
// value, that nothing failed and everything verified, and that the span
// file of each traced run is a properly nested tree.
func TestSmoke(t *testing.T) {
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	e := testEnv(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, w := range spec.Workloads {
		wl := workloadByName(w.Name)
		if wl == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		t.Run(wl.name, func(t *testing.T) {
			res, err := runWorkload(ctx, e, wl, smokeSeed, smokeSizes(), false)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, m := range spec.EndToEnd {
				names = append(names, m.Name)
			}
			checkMetrics(t, res, names)
			for _, name := range []string{"ok_share", "correct_share"} {
				if v := res.Metrics[name].Value; v != 1 {
					t.Errorf("%s = %v, want 1", name, v)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}

			res, err = runWorkload(ctx, e, wl, smokeSeed, smokeSizes(), true)
			if err != nil {
				t.Fatal(err)
			}
			names = nil
			for _, m := range spec.PerLayer {
				names = append(names, m.Name)
			}
			checkMetrics(t, res, names)
			data, err := os.ReadFile(filepath.Join(e.root, "bench", "out", wl.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 {
				t.Fatal("traced run wrote no spans")
			}
			if err := checkNesting(tf.Spans, 0.02); err != nil {
				t.Error(err)
			}
		})
	}
}

// checkMetrics asserts res carries exactly the named metrics, each finite.
func checkMetrics(t *testing.T, res *result, names []string) {
	t.Helper()
	if len(res.Metrics) != len(names) {
		t.Errorf("run printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(names))
	}
	for _, name := range names {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s not printed", name)
		} else if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
			t.Errorf("metric %s = %v %q", name, m.Value, m.Unit)
		}
	}
}

// TestNestingCheckRejects makes sure the tree check can fail.
func TestNestingCheckRejects(t *testing.T) {
	good := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 40, End: 90},
	}
	if err := checkNesting(good, 0.02); err != nil {
		t.Fatal(err)
	}
	escaping := append([]span(nil), good...)
	escaping[2].End = 120
	if checkNesting(escaping, 0.02) == nil {
		t.Error("a child ending after its parent passed")
	}
	overlapping := append([]span(nil), good...)
	overlapping[2].Start = 30
	if checkNesting(overlapping, 0.02) == nil {
		t.Error("overlapping siblings passed")
	}
}

// TestSameSeedSameSchedule: the same seed must yield byte-identical request
// schedules, another seed different ones.
func TestSameSeedSameSchedule(t *testing.T) {
	schedule := func(seed int64, wl *workload) []byte {
		sz := smokeSizes()
		in, err := generate(seed, sz)
		if err != nil {
			t.Fatal(err)
		}
		p := wl.plan(in, sz, wl.counts(sz))
		var buf bytes.Buffer
		for _, steps := range [][]step{p.ingest, p.warmup, p.closed, p.open} {
			for _, st := range steps {
				for _, req := range st {
					buf.WriteString(req.path + " " + req.ctype + "\n")
					buf.Write(req.body)
					buf.WriteByte('\n')
				}
			}
		}
		return buf.Bytes()
	}
	for _, wl := range workloads {
		a, b, c := schedule(smokeSeed, wl), schedule(smokeSeed, wl), schedule(smokeSeed+1, wl)
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different schedules", wl.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds, same schedule", wl.name)
		}
	}
}

// TestCheckerNegativeControl: a benchmark that cannot fail its correctness
// check is not checking. The true answer must verify; the same answer with
// two result IDs swapped, or with one score off by one ulp, must not.
func TestCheckerNegativeControl(t *testing.T) {
	sz := smokeSizes()
	in, err := generate(smokeSeed, sz)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := wfsim.NewRepository(cloneAll(in.base)...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := wfsim.New(repo)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := in.searchByID(in.protected[0], false)
	truth, _, err := eng.SearchID(ctx, req.queryID, wfsim.SearchOptions{K: topK})
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) < 2 {
		t.Fatalf("need at least two results, got %d", len(truth))
	}
	encode := func(rs []wfsim.Result) *reply {
		var sr searchReply
		for _, r := range rs {
			sr.Results = append(sr.Results, searchResult{ID: r.ID, Similarity: r.Similarity})
		}
		return &reply{req: req, status: 200, body: mustJSON(sr)}
	}
	share := func(rs []wfsim.Result) float64 {
		c := newChecker(in, true, sz.deepChecks)
		if err := c.searches(ctx, []*reply{encode(rs)}); err != nil {
			t.Fatal(err)
		}
		if c.checked != 1 {
			t.Fatalf("checked %d replies, want 1", c.checked)
		}
		return c.share()
	}
	if got := share(truth); got != 1 {
		t.Errorf("true answer: correct_share = %v, want 1", got)
	}
	// Swap the IDs of the best and the worst result, keeping the scores in
	// place.
	swapped := append([]wfsim.Result(nil), truth...)
	i, j := 0, len(swapped)-1
	swapped[i].ID, swapped[j].ID = swapped[j].ID, swapped[i].ID
	if got := share(swapped); got >= 1 {
		t.Errorf("swapped result IDs: correct_share = %v, want < 1", got)
	}
	ulp := append([]wfsim.Result(nil), truth...)
	ulp[len(ulp)-1].Similarity = math.Nextafter(ulp[len(ulp)-1].Similarity, 0)
	if got := share(ulp); got >= 1 {
		t.Errorf("score off by one ulp: correct_share = %v, want < 1", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q3 != 5.75 {
		t.Errorf("quartiles = %v, %v; Python gives 1.25, 5.75", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		change []float64
		want   string
	}{
		{[]float64{101, 100, 102, 99, 100}, "ok"},
		{[]float64{130, 131, 129, 130, 132}, "worse"},
		{[]float64{60, 140, 100, 70, 135}, "unresolved"},
	} {
		if got := verdict(parent, tc.change, "lower", 0.10); got != tc.want {
			t.Errorf("verdict(%v) = %s, want %s", tc.change, got, tc.want)
		}
	}
	if got := verdict(parent, []float64{70, 71, 69, 70, 72}, "higher", 0.10); got != "worse" {
		t.Errorf("a throughput that fell by 30%% is %s, want worse", got)
	}
}

// TestResultFileRoundTrip: what -out appends is what -compare and -calibrate
// read back.
func TestResultFileRoundTrip(t *testing.T) {
	rec := record{Workload: "search_hot", Seed: 3, result: result{
		Correct: true, Attempted: 1,
		Metrics: map[string]metric{"p50_ms": {2.5, "ms"}},
	}}
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	runs, err := readRuns(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs["search_hot"]["p50_ms"]; len(got) != 1 || got[0] != 2.5 {
		t.Errorf("read back %v, want [2.5]", got)
	}
}
