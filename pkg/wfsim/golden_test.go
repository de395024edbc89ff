package wfsim

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/search"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files from the current code")

// goldenRankingsFile pins top-10 rankings — IDs and score bits — on a fixed
// generator seed: the bits a kernel rewrite must keep. Its Module Sets lines
// are certified by package oracle, whose definitions share no code with the
// kernels: the oracle re-derives their index=off rankings, the same IDs in
// the same order and every score oracle.Close (pw0 and plm, which take
// seconds, only under -update). Path Sets and Graph Edit, which the oracle
// does not define yet, are pinned by the file alone. Regenerate — only when a
// score is meant to move, and only to what the oracle agrees with — with
//
//	go test ./pkg/wfsim -run TestGoldenRankings -update
const goldenRankingsFile = "testdata/rankings_seed23.golden"

// goldenMeasures spans the kernels: maximum-weight and greedy mapping,
// Levenshtein, exact and multi-attribute schemes, all three preselections,
// with and without the importance projection, over module sets, path sets
// and graph edit distance.
var goldenMeasures = []string{
	"MS_ip_te_pll",
	"MS_np_ta_pw0",
	"MS_np_tm_plm",
	"MS_np_ta_pll_greedy",
	"PS_ip_te_pll",
	"GE_ip_te_pll",
}

// goldenRankings runs the 12 inline and 12 by-ID golden queries under every
// golden measure on a fresh engine and renders one line per (measure, query).
func goldenRankings(t *testing.T, stored, held []*Workflow, opts ...Option) []string {
	t.Helper()
	ctx := context.Background()
	eng := goldenEngine(t, stored, opts...)
	var lines []string
	render := func(measure, kind, qid string, res []Result) {
		var b strings.Builder
		fmt.Fprintf(&b, "%s %s %s", measure, kind, qid)
		for _, r := range res {
			fmt.Fprintf(&b, " %s:%016x", r.ID, math.Float64bits(r.Similarity))
		}
		lines = append(lines, b.String())
	}
	for _, m := range goldenMeasures {
		so := SearchOptions{Measure: m, K: 10}
		for _, q := range held {
			res, _, err := eng.Search(ctx, q.Clone(), so)
			if err != nil {
				t.Fatalf("%s inline %s: %v", m, q.ID, err)
			}
			render(m, "inline", q.ID, res)
		}
		for i := 0; i < 12; i++ {
			id := stored[i*5].ID
			res, _, err := eng.SearchID(ctx, id, so)
			if err != nil {
				t.Fatalf("%s id %s: %v", m, id, err)
			}
			render(m, "id", id, res)
		}
	}
	return lines
}

// goldenEngine builds an engine over clones of the stored golden workflows.
func goldenEngine(t *testing.T, stored []*Workflow, opts ...Option) *Engine {
	t.Helper()
	clones := make([]*Workflow, len(stored))
	for i, wf := range stored {
		clones[i] = wf.Clone()
	}
	repo, err := NewRepository(clones...)
	if err != nil {
		t.Fatal(err)
	}
	// A generous GED budget: the golden must not depend on machine load.
	eng, err := New(repo, append([]Option{WithGEDBudget(time.Minute, DefaultGEDBeamWidth)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// goldenCorpus generates the golden file's corpus: 60 stored workflows and
// every sixth one held out as an inline query, so each query has
// cluster-mates among the stored ones.
func goldenCorpus(t *testing.T) (stored, held []*Workflow) {
	t.Helper()
	p := TavernaProfile()
	p.Workflows = 72
	p.Clusters = 6
	c, err := GenerateCorpus(p, 23)
	if err != nil {
		t.Fatal(err)
	}
	for i, wf := range c.Repo.Snapshot().Workflows() {
		if i%6 == 5 {
			held = append(held, wf)
		} else {
			stored = append(stored, wf)
		}
	}
	return stored, held
}

func TestGoldenRankings(t *testing.T) {
	stored, held := goldenCorpus(t)

	var want map[string][]string // index mode -> lines
	if !*updateGolden {
		want = readGoldenRankings(t)
	}
	got := map[string][]string{}
	for _, mode := range []string{"off", "on"} {
		for _, shards := range []int{1, 2} {
			opts := []Option{WithShards(shards)}
			if mode == "on" {
				opts = append(opts, WithIndex(2))
			}
			lines := goldenRankings(t, stored, held, opts...)
			if got[mode] == nil {
				got[mode] = lines
			}
			ref := want[mode]
			if *updateGolden {
				ref = got[mode] // both shard counts must write the same file
			}
			if len(lines) != len(ref) {
				t.Fatalf("index=%s shards=%d: %d lines, golden has %d", mode, shards, len(lines), len(ref))
			}
			for i := range lines {
				if lines[i] != ref[i] {
					t.Errorf("index=%s shards=%d:\n got  %s\n want %s", mode, shards, lines[i], ref[i])
				}
			}
		}
	}
	checkGoldenWithOracle(t, got["off"], stored, held)
	// Which measures the index touches is part of what the file pins: a
	// Module Sets measure has an exact score bound and is never handed the
	// index's candidates, so its index=on lines are its index=off lines; Path
	// Sets and Graph Edit have none and keep the index's ranking, which on
	// this corpus differs from the exact one.
	indexMoved := map[string]bool{}
	for i, on := range got["on"] {
		if off := got["off"][i]; on != off {
			if strings.HasPrefix(on, "MS_") {
				t.Errorf("index=on differs from index=off under a bounded measure:\n on  %s\n off %s", on, off)
			}
			indexMoved[on[:2]] = true
		}
	}
	if !indexMoved["PS"] || !indexMoved["GE"] {
		t.Errorf("index=on and index=off rankings differ for %v, want PS and GE: the golden no longer shows the index at work", indexMoved)
	}
	if *updateGolden && !t.Failed() {
		var b strings.Builder
		b.WriteString("# top-10 IDs and math.Float64bits per query; see golden_test.go\n")
		for _, mode := range []string{"off", "on"} {
			for _, l := range got[mode] {
				fmt.Fprintf(&b, "index=%s %s\n", mode, l)
			}
		}
		if err := os.WriteFile(goldenRankingsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkGoldenWithOracle re-derives with package oracle every line of lines
// under a measure the oracle defines: the query against every stored
// workflow but its namesake, ranked by the oracle's scores, must list the
// line's IDs in the line's order, each score within oracle.Close of the
// line's. The two slowest measures are left to -update.
func checkGoldenWithOracle(t *testing.T, lines []string, stored, held []*Workflow) {
	t.Helper()
	query := map[string]*Workflow{}
	for _, wf := range append(slices.Clone(stored), held...) {
		query[wf.ID] = wf
	}
	for _, line := range lines {
		f := strings.Fields(line)
		om, ok := oracle.Lookup(f[0])
		if !ok || !*updateGolden && (f[0] == "MS_np_ta_pw0" || f[0] == "MS_np_tm_plm") {
			continue
		}
		var want []Result
		for _, wf := range stored {
			if wf.ID != f[2] {
				want = append(want, Result{ID: wf.ID, Similarity: om.Compare(query[f[2]], wf)})
			}
		}
		search.SortResults(want)
		hits := f[3:]
		for i, hit := range hits {
			id, bits, _ := strings.Cut(hit, ":")
			u, err := strconv.ParseUint(bits, 16, 64)
			if err != nil || len(hits) != min(10, len(want)) || want[i].ID != id || !oracle.Close(math.Float64frombits(u), want[i].Similarity) {
				t.Errorf("the oracle disagrees at rank %d of\n %s\nits top 10: %v", i, line, want[:min(10, len(want))])
				break
			}
		}
	}
}

// readGoldenRankings parses the golden file into its per-index-mode lines.
func readGoldenRankings(t *testing.T) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(goldenRankingsFile)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(l, "#") {
			continue
		}
		mode, rest, ok := strings.Cut(strings.TrimPrefix(l, "index="), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenRankingsFile, l)
		}
		out[mode] = append(out[mode], rest)
	}
	return out
}
