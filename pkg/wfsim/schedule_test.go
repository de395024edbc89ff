package wfsim

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/measures"
	"repro/internal/oracle"
	"repro/internal/repoknow"
	"repro/internal/search"
	"repro/internal/symtab"
)

// The engine's differential test. checkSchedule drives one engine through a
// seeded random schedule of batches, searches (by ID and inline, at several
// K, with MinSimilarity, IncludeQuery and Exact), comparisons, duplicate
// scans, clusterings and, on storage rows, clean and crash restarts, and
// holds every answer to bruteForce replayed over the same live corpus: IDs,
// order and score bits. bruteForce's scores are held in turn to package
// oracle wherever it defines the measure. Each row of scheduleRows is one
// engine configuration, run by the test that bears its name.

// scheduleRow is one engine configuration and the schedule it runs.
type scheduleRow struct {
	name            string // the test that runs the row
	shards, cache   int    // cache: score-cache capacity, 0 for none
	index, repoKnow bool
	storage         string // "": in memory; "clean" or "crash": durable, restarted after Close or without it
	measures        []string
	seed            int64
	steps, live     int // live: the corpus size at the start; batches keep it within 8 of it
}

var scheduleRows = []scheduleRow{
	{name: "TestEngineMatchesBruteForce", shards: 2, index: true, cache: 128, seed: 1, steps: 80, live: 16,
		measures: append(CompareMeasures(), "MS_np_ta_pw3", "MS_np_ta_gw1", "MS_ip_te_gw1")},
	{name: "TestShardedSearchEquivalence", shards: 5, index: true, cache: 512, seed: 2, steps: 80, live: 24,
		measures: []string{"MS_ip_te_pll", "MS_np_tm_plm", "ENS(BW+MS_ip_te_pll)"}},
	{name: "TestShardedEquivalenceAfterApply", shards: 5, index: true, cache: 256, storage: "clean", seed: 3, steps: 80, live: 24,
		measures: []string{"MS_ip_te_pll", "BW"}},
	{name: "TestShardedCompareEquivalence", shards: 5, seed: 4, steps: 60, live: 24,
		measures: []string{"BW", "BT", "LS", "MS_np_ta_pll", "ENS(BW+MS_ip_te_pll)"}},
	{name: "TestShardedRepositoryKnowledgeEquivalence", shards: 5, index: true, cache: 64, repoKnow: true, storage: "crash", seed: 5, steps: 80, live: 24,
		measures: []string{"MS_ip_te_pll", "MS_ip_ta_pll_greedy"}},
	{name: "TestRandomScheduleMatchesCachelessEngine", shards: 2, index: true, cache: 256, storage: "crash", seed: 6, steps: 100, live: 24,
		measures: []string{"MS_ip_te_pll"}},
	{name: "TestTopKIsPrefixOfFullRanking", shards: 1, index: true, cache: 64, repoKnow: true, seed: 7, steps: 80, live: 24,
		measures: []string{"MS_ip_te_pll", "MS_np_ta_pw0", "MS_np_tm_plm", "MS_np_ta_pll_greedy"}},
	{name: "TestDuplicatesWithThresholdMatchesFloorlessWalk", shards: 1, cache: 512, storage: "clean", seed: 8, steps: 60, live: 24,
		measures: []string{"MS_ip_te_pll", "MS_np_ta_pw0", "MS_np_ta_pll_greedy", "BW"}},
	{name: "TestInlineQueryMatchesStoredQuery", shards: 1, seed: 9, steps: 60, live: 24,
		measures: []string{"MS_ip_te_pll", "MS_np_ta_pw0", "MS_np_tm_plm", "PS_ip_te_pll", "BW"}},
	{name: "TestSearchIndexedMatchesExact", shards: 1, index: true, seed: 10, steps: 40, live: 16,
		measures: []string{"MS_ip_te_pll", "GE_ip_te_pll"}},
}

func TestEngineMatchesBruteForce(t *testing.T)                     { checkRow(t) }
func TestShardedSearchEquivalence(t *testing.T)                    { checkRow(t) }
func TestShardedEquivalenceAfterApply(t *testing.T)                { checkRow(t) }
func TestShardedCompareEquivalence(t *testing.T)                   { checkRow(t) }
func TestShardedRepositoryKnowledgeEquivalence(t *testing.T)       { checkRow(t) }
func TestTopKIsPrefixOfFullRanking(t *testing.T)                   { checkRow(t) }
func TestDuplicatesWithThresholdMatchesFloorlessWalk(t *testing.T) { checkRow(t) }
func TestInlineQueryMatchesStoredQuery(t *testing.T)               { checkRow(t) }
func TestSearchIndexedMatchesExact(t *testing.T)                   { checkRow(t) }

// TestRandomScheduleMatchesCachelessEngine runs its row at every shard count
// forCacheShards names.
func TestRandomScheduleMatchesCachelessEngine(t *testing.T) {
	forCacheShards(t, func(t *testing.T, shards int) {
		checkRowAt(t, "TestRandomScheduleMatchesCachelessEngine", shards)
	})
}

func checkRow(t *testing.T) { checkRowAt(t, t.Name(), 0) }

// checkRowAt runs the named row, at the given shard count unless it is 0, and
// requires that its schedule exercised what the row is there for: every
// operation, restarts of a durable engine, hits and evictions in a cache,
// projector rebuilds under repository knowledge, the bound under every Module
// Sets measure, and, for Graph Edit through the index, a pruned search whose
// top hit still reaches the exact top hit's score.
func checkRowAt(t *testing.T, name string, shards int) {
	i := slices.IndexFunc(scheduleRows, func(r scheduleRow) bool { return r.name == name })
	if i < 0 {
		t.Fatalf("no schedule row for %s", name)
	}
	row := scheduleRows[i]
	if shards > 0 {
		row.shards = shards
	}
	seen := checkSchedule(t, row).seen
	if t.Failed() {
		return // a failed schedule stops early; what it did not reach is no news
	}
	owed := map[string]bool{"batch": true, "search": true, "inline": true, "compare": true, "scan": true,
		"restart": row.storage != "", "cache hits": row.cache > 0, "cache evictions": row.cache > 0,
		"projector rebuilt": row.repoKnow, "Graph Edit pruned, top hit reached": row.index && slices.Contains(row.measures, "GE_ip_te_pll")}
	for _, m := range row.measures {
		owed["bounded under "+m] = bounded(m)
	}
	for w, ok := range owed {
		if ok && seen[w] == 0 {
			t.Errorf("the schedule never saw %s", w)
		}
	}
}

// FuzzEngineSchedule runs row (modulo the number of rows) under another
// seed. Its seed corpus is one short row.
func FuzzEngineSchedule(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, row uint8) {
		r := scheduleRows[int(row)%len(scheduleRows)]
		r.seed = seed
		checkSchedule(t, r)
	})
}

// refPool is the content every schedule draws from — 30 generated Taverna
// and 6 Galaxy workflows of at most 10 modules (the oracle's maximum-weight
// mapping is exhaustive) — with the references' clones of it and their
// scores under the type-based projection, shared by every row. An engine is
// only ever handed fresh clones of raw.
type refPool struct {
	tab     *symtab.Table
	raw     []*Workflow
	clones  map[poolKey]*Workflow // content under an ID, resolved by tab
	content map[*Workflow]int     // clone -> its index in raw
	scores  map[string]map[[2]*Workflow]refScore
	wants   map[wantKey]float64 // the oracle's scores
}

type poolKey struct {
	id string
	c  int
}

type wantKey struct {
	measure string
	a, b    int // indexes in raw, a <= b
}

var schedulePool = sync.OnceValues(func() (*refPool, error) {
	p := &refPool{tab: symtab.New(), clones: map[poolKey]*Workflow{}, content: map[*Workflow]int{},
		scores: map[string]map[[2]*Workflow]refScore{}, wants: map[wantKey]float64{}}
	for i, profile := range []Profile{TavernaProfile(), GalaxyProfile()} {
		profile.Workflows, profile.Clusters = 64, 6
		c, err := GenerateCorpus(profile, 23)
		if err != nil {
			return nil, err
		}
		n := len(p.raw) + []int{30, 6}[i]
		for _, wf := range c.Repo.Snapshot().Workflows() {
			if wf.Size() <= 10 && len(p.raw) < n {
				p.raw = append(p.raw, wf)
			}
		}
	}
	return p, nil
})

// clone returns the reference's workflow for content c under id. Graph Edit
// orders a pair by ID, so a clone carries the ID the engine's copy carries.
func (p *refPool) clone(id string, c int) *Workflow {
	wf, ok := p.clones[poolKey{id, c}]
	if !ok {
		wf = withID(p.raw[c], id)
		wf.Resolve(p.tab)
		p.clones[poolKey{id, c}], p.content[wf] = wf, c
	}
	return wf
}

// oracleScore is om's score of two clones' contents. The oracle reads their
// strings alone and agrees within oracle.Close in either orientation, so
// the score is memoised per unordered pair of contents.
func (p *refPool) oracleScore(om oracle.Measure, a, b *Workflow) float64 {
	k := wantKey{om.Name(), min(p.content[a], p.content[b]), max(p.content[a], p.content[b])}
	want, ok := p.wants[k]
	if !ok {
		want = om.Compare(p.raw[k.a], p.raw[k.b])
		p.wants[k] = want
	}
	return want
}

// memoMeasure is a reference measure that scores each ordered pair of
// clones once and, with an oracle, holds each new score to it.
type memoMeasure struct {
	Measure
	t      testing.TB
	scores map[[2]*Workflow]refScore
	oracle func(a, b *Workflow) float64
}

type refScore struct {
	sim float64
	err error
}

func (m memoMeasure) Compare(a, b *Workflow) (float64, error) {
	s, ok := m.scores[[2]*Workflow{a, b}]
	if !ok {
		s.sim, s.err = m.Measure.Compare(a, b)
		m.scores[[2]*Workflow{a, b}] = s
		if s.err == nil && m.oracle != nil && !oracle.Close(s.sim, m.oracle(a, b)) {
			m.t.Errorf("reference %s(%s, %s) = %v, oracle %v", m.Name(), a.ID, b.ID, s.sim, m.oracle(a, b))
		}
	}
	return s.sim, s.err
}

// bounded reports whether a measure has an exact score bound: Module Sets.
func bounded(measure string) bool { return strings.HasPrefix(measure, "MS_") }

// schedule is one run of a row.
type schedule struct {
	t                *testing.T
	row              scheduleRow
	pool             *refPool
	rng              *rand.Rand
	eng              *Engine
	dir              string
	live             map[string]int // ID -> content
	gone             []string       // removed IDs, to add again
	ids              int            // IDs handed out
	ref              *bruteForce    // over live
	parsed           map[string]Measure
	seen             map[string]int // what the run exercised
	rebuildsAt       int            // ProjectorRebuilds after the last batch, -1 once a read followed
	recall, recallOf float64        // over index-served searches
}

// checkSchedule runs row's schedule and returns what it exercised.
func checkSchedule(t *testing.T, row scheduleRow) *schedule {
	pool, err := schedulePool()
	if err != nil {
		t.Fatal(err)
	}
	s := &schedule{t: t, row: row, pool: pool, rng: rand.New(rand.NewSource(row.seed)),
		live: map[string]int{}, seen: map[string]int{}, rebuildsAt: -1}
	if row.storage != "" {
		s.dir = t.TempDir()
	}
	var seed []*Workflow
	for len(s.live) < row.live {
		id, c := s.freshID(), s.rng.Intn(len(pool.raw))
		s.live[id] = c
		seed = append(seed, withID(pool.raw[c], id))
	}
	s.eng = s.open(seed...)
	s.rebuild()
	for step := 0; step < row.steps && !t.Failed(); step++ {
		switch op := s.rng.Intn(12); {
		case op < 3:
			s.batch(step)
		case op < 5:
			s.search(step, false)
		case op < 7:
			s.search(step, true)
		case op < 8:
			s.compare(step)
		case op < 10:
			s.scan(step)
		case op < 11 && row.storage != "":
			s.restart(step)
		default:
			s.search(step, s.rng.Intn(2) == 0)
		}
	}
	s.countCache()
	if err := s.eng.Close(); err != nil {
		t.Error(err)
	}
	t.Logf("%s seed %d: %v; recall %.3f over %v index-served searches", row.name, row.seed, s.seen, s.recall/max(s.recallOf, 1), s.recallOf)
	return s
}

// open builds the row's engine over seed, which is empty when reopening.
func (s *schedule) open(seed ...*Workflow) *Engine {
	opts := []Option{WithShards(s.row.shards), WithGEDBudget(time.Minute, DefaultGEDBeamWidth),
		WithMeasure("LS", measures.LabelSets{})}
	if s.row.index {
		opts = append(opts, WithIndex(2))
	}
	if s.row.cache > 0 {
		opts = append(opts, WithScoreCache(s.row.cache))
	}
	if s.row.repoKnow {
		opts = append(opts, WithRepositoryKnowledge(0))
	}
	if s.dir != "" {
		opts = append(opts, WithStorage(s.dir))
	}
	repo, err := NewRepository(seed...)
	if err != nil {
		s.t.Fatal(err)
	}
	eng, err := New(repo, opts...)
	if err != nil {
		s.t.Fatal(err)
	}
	return eng
}

func (s *schedule) freshID() string {
	s.ids++
	return fmt.Sprintf("w%03d", s.ids)
}

// rebuild replays the live corpus into a new reference, which under
// repository knowledge projects with the live corpus's module frequencies,
// as the engine does.
func (s *schedule) rebuild() {
	s.ref = &bruteForce{tab: s.pool.tab}
	for id, c := range s.live {
		s.ref.wfs = append(s.ref.wfs, s.pool.clone(id, c))
	}
	sort.Slice(s.ref.wfs, func(i, j int) bool { return s.ref.wfs[i].ID < s.ref.wfs[j].ID })
	if s.row.repoKnow {
		usage := repoknow.CollectUsage(s.ref.wfs)
		s.ref.project = repoknow.NewProjector(repoknow.NewFrequencyScorer(usage), DefaultProjectionThreshold).Project
	}
	s.parsed = map[string]Measure{}
}

// measure returns the reference's measure of that name, or, for "", the one
// the next operation of kind op runs under: each kind takes the row's
// measures in turn. Under the type-based projection its scores are the
// pool's, and held to the oracle where the oracle defines the measure;
// under repository knowledge, which the oracle lacks, they last until the
// next batch moves the projection.
func (s *schedule) measure(op, name string) Measure {
	if name == "" {
		name = s.row.measures[s.seen[op]%len(s.row.measures)]
		s.seen[op]++
	}
	if s.parsed[name] == nil {
		m := memoMeasure{Measure: s.ref.measure(s.t, name), t: s.t, scores: map[[2]*Workflow]refScore{}}
		if !s.row.repoKnow {
			if s.pool.scores[name] == nil {
				s.pool.scores[name] = m.scores
			}
			m.scores = s.pool.scores[name]
			if om, ok := oracle.Lookup(name); ok {
				m.oracle = func(a, b *Workflow) float64 { return s.pool.oracleScore(om, a, b) }
			}
		}
		s.parsed[name] = m
	}
	return s.parsed[name]
}

func (s *schedule) liveID() string { return s.ref.wfs[s.rng.Intn(len(s.ref.wfs))].ID }

// batch commits one to three writes on distinct IDs — adds under fresh and
// removed IDs, removes, replaces — with content drawn from the pool.
func (s *schedule) batch(step int) {
	s.seen["batch"]++
	var muts []Mutation
	live, gone, touched := maps.Clone(s.live), slices.Clone(s.gone), map[string]bool{}
	for k := 1 + s.rng.Intn(3); k > 0; k-- {
		c, id := s.rng.Intn(len(s.pool.raw)), s.liveID()
		switch x := s.rng.Intn(4); {
		case x == 0 && len(s.gone) > 0:
			if id = s.gone[s.rng.Intn(len(s.gone))]; slices.Contains(gone, id) {
				gone = slices.DeleteFunc(gone, func(g string) bool { return g == id })
				live[id] = c
				muts = append(muts, AddWorkflow(withID(s.pool.raw[c], id)))
			}
		case x == 1 || len(live) <= s.row.live-8:
			id = s.freshID()
			live[id] = c
			muts = append(muts, AddWorkflow(withID(s.pool.raw[c], id)))
		case touched[id]:
		case x == 2 && len(live) > s.row.live-8:
			delete(live, id)
			gone = append(gone, id)
			muts = append(muts, RemoveWorkflow(id))
		default:
			live[id] = c
			muts = append(muts, ReplaceWorkflow(withID(s.pool.raw[c], id)))
		}
		touched[id] = true
	}
	if len(muts) == 0 {
		return
	}
	if _, err := s.eng.Apply(context.Background(), muts...); err != nil {
		s.t.Fatalf("step %d: Apply(%v): %v", step, muts, err)
	}
	s.live, s.gone = live, gone
	s.rebuild()
	if s.row.repoKnow {
		s.rebuildsAt = s.eng.ProjectorRebuilds()
	}
}

// search runs one query — a live workflow by ID, or inline under a live or
// a fresh ID with content from the pool — under one option set at K = 1, 3,
// 10 and past the corpus size. Each list must be the reference's top-k, bits
// included, unless a measure without a bound took the index's candidates:
// then it must be an ordered subset scored as the reference scores it, and
// its recall is tallied for the log.
func (s *schedule) search(step int, inline bool) {
	op := "search"
	if inline {
		op = "inline"
	}
	m := s.measure(op, "")
	qID := s.liveID()
	c, live := s.live[qID], true
	if inline && s.rng.Intn(2) == 0 {
		qID, live = fmt.Sprintf("q%03d", step), false
	}
	if inline && s.rng.Intn(2) == 0 {
		c = s.rng.Intn(len(s.pool.raw))
	}
	so := SearchOptions{Measure: m.Name()}
	switch s.rng.Intn(6) {
	case 0:
		so.IncludeQuery = true
	case 1:
		so.Exact = true
	case 2:
		minSim := 0.2 + 0.6*s.rng.Float64()
		so.MinSimilarity = &minSim
	}
	want := s.ref.ranking(m, s.pool.clone(qID, c), so.IncludeQuery)
	if so.MinSimilarity != nil {
		want = slices.DeleteFunc(want, func(r Result) bool { return r.Similarity <= *so.MinSimilarity })
	}
	owed := len(s.live)
	if live && !so.IncludeQuery {
		owed--
	}
	indexed := s.row.index && !bounded(so.Measure) && !so.Exact && !so.IncludeQuery && so.MinSimilarity == nil
	for _, k := range []int{1, 3, 10, len(s.live) + 2} {
		so.K = k
		what := fmt.Sprintf("step %d: search %s (inline %v) %+v", step, qID, inline, so)
		var (
			got []Result
			st  Stats
			err error
		)
		if q := withID(s.pool.raw[c], qID); inline {
			got, st, err = s.eng.Search(context.Background(), q, so)
			assertUnresolved(s.t, what, q)
		} else {
			got, st, err = s.eng.SearchID(context.Background(), qID, so)
		}
		if err != nil {
			s.t.Fatalf("%s: %v", what, err)
		}
		s.checkStats(what, st, m.Name(), owed, indexed, !inline)
		head := want[:min(k, len(want))]
		if !indexed {
			if diff := sameResults(got, head); diff != "" {
				s.t.Fatalf("%s: %s", what, diff)
			}
			continue
		}
		sorted := slices.Clone(got)
		search.SortResults(sorted)
		if len(got) > k || !slices.Equal(sorted, got) {
			s.t.Fatalf("%s: %v is not an ordered list of at most %d", what, got, k)
		}
		hits := 0
		for _, r := range got {
			if i := slices.IndexFunc(want, func(w Result) bool { return w.ID == r.ID }); i < 0 || want[i] != r {
				s.t.Fatalf("%s: result %v, which the reference scores otherwise", what, r)
			} else if i < len(head) {
				hits++
			}
		}
		s.recall += float64(hits) / float64(max(len(head), 1))
		s.recallOf++
		if strings.HasPrefix(so.Measure, "GE_") && st.Pruned > 0 && len(got) > 0 && got[0].Similarity >= want[0].Similarity {
			s.seen["Graph Edit pruned, top hit reached"]++
		}
	}
	s.readDone()
}

// compare scores two pool contents with Compare and two live workflows with
// CompareIDs, under every measure of the row, in the order given.
func (s *schedule) compare(step int) {
	s.seen["compare"]++
	ca, cb, aID, bID := s.rng.Intn(len(s.pool.raw)), s.rng.Intn(len(s.pool.raw)), s.liveID(), s.liveID()
	a, b := withID(s.pool.raw[ca], "qa"), withID(s.pool.raw[cb], "qb")
	byContent, err := s.eng.Compare(context.Background(), a, b, s.row.measures...)
	if err != nil {
		s.t.Fatalf("step %d: Compare: %v", step, err)
	}
	byID, err := s.eng.Read().CompareIDs(context.Background(), aID, bID, s.row.measures...)
	if err != nil {
		s.t.Fatalf("step %d: CompareIDs: %v", step, err)
	}
	what := fmt.Sprintf("step %d: Compare(pool %d, pool %d) and CompareIDs(%s, %s)", step, ca, cb, aID, bID)
	assertUnresolved(s.t, what, a)
	assertUnresolved(s.t, what, b)
	for i, name := range s.row.measures {
		m := s.measure("", name)
		for _, c := range []struct {
			got  Score
			a, b *Workflow
		}{{byContent[i], s.pool.clone("qa", ca), s.pool.clone("qb", cb)}, {byID[i], s.pool.clone(aID, s.live[aID]), s.pool.clone(bID, s.live[bID])}} {
			want, err := m.Compare(c.a, c.b)
			if c.got.Measure != m.Name() || c.got.Err != nil || err != nil || c.got.Similarity != want {
				s.t.Fatalf("%s: %+v, the reference's %s = %v (%v)", what, c.got, m.Name(), want, err)
			}
			s.seen["checks"]++
		}
	}
	s.readDone()
}

// scan runs Duplicates at a random threshold and Cluster at a random
// cut-off under one measure.
func (s *schedule) scan(step int) {
	m := s.measure("scan", "")
	threshold, minSim := 0.3+0.7*s.rng.Float64(), 0.3+0.5*s.rng.Float64()
	if s.rng.Intn(4) == 0 {
		threshold = 1
	}
	what := fmt.Sprintf("step %d: Duplicates(%v) and Cluster(%v) under %s", step, threshold, minSim, m.Name())
	got, st, err := s.eng.Duplicates(context.Background(), threshold, DuplicateOptions{Measure: m.Name()})
	if err != nil {
		s.t.Fatalf("%s: %v", what, err)
	}
	s.checkStats(what, st, m.Name(), len(s.live)*(len(s.live)-1)/2, false, true)
	if want := s.ref.duplicates(m, threshold); !slices.Equal(got, want) {
		s.t.Fatalf("%s:\n got  %v\n want %v", what, got, want)
	}
	c, err := s.eng.Cluster(context.Background(), ClusterOptions{Measure: m.Name(), MinSimilarity: &minSim})
	if err != nil {
		s.t.Fatalf("%s: %v", what, err)
	}
	if want := s.ref.cluster(m, minSim); c.Measure != m.Name() || len(c.Generations) != s.row.shards || !reflect.DeepEqual(c.Clusters, want) {
		s.t.Fatalf("%s: %s over %d shards:\n got  %v\n want %v", what, c.Measure, len(c.Generations), c.Clusters, want)
	}
	s.seen["checks"]++
	s.readDone()
}

// restart reopens the row's store, after Close on a clean-restart row and
// without it (kill -9) on a crash-restart row, and requires the corpus back
// at the generations it was left at; the next reads hold it to the
// reference.
func (s *schedule) restart(step int) {
	s.seen["restart"]++
	before := s.eng.Read().Frontier()
	s.countCache()
	if s.row.storage == "clean" {
		if err := s.eng.Close(); err != nil {
			s.t.Fatalf("step %d: Close: %v", step, err)
		}
	}
	s.eng, s.rebuildsAt = s.open(), -1
	if after := s.eng.Read().Frontier(); after.Workflows != len(s.live) || !slices.Equal(after.Generations, before.Generations) {
		s.t.Fatalf("step %d: reopened at %+v, left at %+v", step, after, before)
	}
}

// countCache adds the engine's cache counters to the run's.
func (s *schedule) countCache() {
	cs := s.eng.CacheStats()
	s.seen["cache hits"] += int(cs.Hits)
	s.seen["cache evictions"] += int(cs.Evictions)
}

// readDone requires, on a repository-knowledge row, that the first read
// after a batch rebuilt the projector.
func (s *schedule) readDone() {
	if s.rebuildsAt < 0 {
		return
	}
	if r := s.eng.ProjectorRebuilds(); r <= s.rebuildsAt || r < 2 {
		s.t.Fatalf("projector rebuilds = %d after a batch and a read, %d before the read", r, s.rebuildsAt)
	}
	s.rebuildsAt = -1
	s.seen["projector rebuilt"]++
}

// checkStats holds a call's stats to what it owed: the measure asked for,
// every pair accounted for, one generation per shard, nothing pruned unless
// the call could take the index's candidates, nothing bounded under a
// measure without a bound, and, for a call scoring stored pairs on a cached
// engine, a cache lookup per scored pair; any other call touches no cache.
func (s *schedule) checkStats(what string, st Stats, measure string, owed int, indexed, cacheable bool) {
	s.t.Helper()
	cached := s.row.cache > 0 && cacheable
	if st.Measure != measure || covered(st) != owed || len(st.Generations) != s.row.shards || st.Pruned != 0 && !indexed ||
		st.Bounded != 0 && !bounded(measure) || cached && st.CacheHits+st.CacheMisses != st.Scored ||
		!cached && st.CacheHits+st.CacheMisses != 0 {
		s.t.Fatalf("%s: %+v; want %d pairs covered over %d shards (index usable %v, cacheable %v)", what, st, owed, s.row.shards, indexed, cached)
	}
	s.seen["bounded under "+measure] += st.Bounded
	s.seen["checks"]++
}

// covered is the number of pairs a read accounted for, one way or another.
// How they split between scored and bounded depends on worker scheduling
// and on the shard count; the sum does not.
func covered(s Stats) int { return s.Scored + s.Bounded + s.Pruned + s.Skipped }

// assertUnresolved fails if the engine resolved the caller's object q: an
// inline query and either side of Compare are scored on private copies.
func assertUnresolved(t *testing.T, what string, q *Workflow) {
	t.Helper()
	for _, mod := range q.Modules {
		if q.Resolved() || q.SymID() != 0 || mod.Syms != (Module{}).Syms || mod.CanonID != 0 {
			t.Fatalf("%s: the engine resolved the caller's workflow", what)
		}
	}
}
