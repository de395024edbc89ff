package module

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/oracle"
	"repro/internal/workflow"
)

// resolvedPair builds two workflows of n random modules each, resolved by one
// fresh symbol table.
func resolvedPair(seed int64, n int) (*workflow.Workflow, *workflow.Workflow) {
	r := rand.New(rand.NewSource(seed))
	a, b := workflow.New("a"), workflow.New("b")
	for i := 0; i < n; i++ {
		a.AddModule(randModule(r))
		b.AddModule(randModule(r))
	}
	resolve(a, b)
	return a, b
}

// TestWeightMatrixPathsAgree: the fresh matrix (WeightMatrix), the memoized
// one and the pooled one (AcquireMatrix, reused across shapes so stale cells
// would show) hold the same bits and the same comparison counts under every
// scheme and preselection: Allows, then SimilarityMemo without a memo, cell
// by cell. TestSimilarityMatchesOracle holds that to the string definition.
func TestWeightMatrixPathsAgree(t *testing.T) {
	memoized := 0
	for seed := int64(0); seed < 200; seed++ {
		a, b := resolvedPair(seed, 1+int(seed%9))
		if seed%3 == 0 {
			b.Modules = b.Modules[:min(b.Size(), 1+int(seed%4))] // unequal sides
		}
		if seed%5 == 4 {
			a, b = b, a
		}
		memo := NewSimMemo() // one per symbol table: IDs of two tables must never meet in a memo
		for _, s := range []Scheme{PW0(), PW3(), PLL(), PLM(), GW1(), GLL()} {
			for _, p := range []Preselect{AllPairs, TypeMatch, TypeEquivalence} {
				plain, pst := WeightMatrix(a, b, s, p)
				memoed, mst := WeightMatrixMemo(a, b, s, p, memo)
				mx := AcquireMatrix(a, b, s, p, memo, RowStop{})
				compared := 0
				for i, x := range a.Modules {
					for j, y := range b.Modules {
						want := 0.0
						if p.Allows(x, y) {
							compared++
							want = s.SimilarityMemo(x, y, nil)
						}
						for name, got := range map[string]float64{"WeightMatrix": plain[i][j], "WeightMatrixMemo": memoed[i][j], "AcquireMatrix": mx.W[i][j]} {
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("seed %d %s/%s: %s[%d][%d] = %v, want %v", seed, s.Name, p, name, i, j, got, want)
							}
						}
					}
				}
				for name, st := range map[string]PairStats{"WeightMatrix": pst, "WeightMatrixMemo": mst, "AcquireMatrix": mx.Stats} {
					if st.Total != a.Size()*b.Size() || st.Compared != compared {
						t.Fatalf("seed %d %s/%s: %s stats = %+v, want {%d %d}", seed, s.Name, p, name, st, a.Size()*b.Size(), compared)
					}
				}
				mx.Release()
			}
		}
		memoized += memo.Len()
	}
	if memoized == 0 {
		t.Error("memo stayed empty across edit-distance schemes")
	}
}

// TestSimilarityMatchesOracle holds every scheme's module similarity to the
// oracle's string definition, bit for bit, with and without a memo, in both
// argument orders, over random modules with every attribute the schemes
// compare: empty on one side, both or neither, parameters included.
func TestSimilarityMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	w := workflow.New("modules")
	for i := 0; i < 400; i++ {
		w.AddModule(randModule(r))
	}
	resolve(w)
	memo := NewSimMemo()
	schemes := []Scheme{PW0(), PW3(), PLL(), PLM(), GW1(), GLL()}
	if names := oracle.Schemes(); len(names) != len(schemes) {
		t.Fatalf("the oracle defines schemes %v, the package %d", names, len(schemes))
	}
	checked := 0
	for i := 0; i+1 < len(w.Modules); i += 2 {
		for _, pair := range [][2]*workflow.Module{{w.Modules[i], w.Modules[i+1]}, {w.Modules[i+1], w.Modules[i]}, {w.Modules[i], w.Modules[i]}} {
			a, b := pair[0], pair[1]
			for _, s := range schemes {
				want := oracle.ModuleSim(s.Name, a, b)
				for _, m := range []*SimMemo{nil, memo, memo} { // the second memo pass reads what the first stored
					if got := s.SimilarityMemo(a, b, m); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s(%+v, %+v), memo %v: %v, oracle %v", s.Name, *a, *b, m != nil, got, want)
					}
					checked++
				}
			}
		}
	}
	if memo.Len() == 0 {
		t.Error("no edit-distance pair reached the memo")
	}
	t.Logf("%d module scores matched the oracle bit for bit", checked)
}

// TestSimMemoConcurrent hammers one SimMemo from several goroutines across
// several table growths: every lookup returns the value its key was stored
// with (or misses), and each distinct key is counted once.
func TestSimMemoConcurrent(t *testing.T) {
	sm := NewSimMemo()
	const keys = 5 * simMemoMinSlots // forces a few doublings
	val := func(k uint64) float64 { return float64(k%1000) / 1000 }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 4*keys; n++ {
				k := uint64(1+r.Intn(keys))<<32 | uint64(keys+1)
				if v, ok := sm.get(k); ok {
					if v != val(k) {
						t.Errorf("get(%#x) = %v, want %v", k, v, val(k))
						return
					}
					continue
				}
				sm.put(k, val(k))
			}
		}(g)
	}
	wg.Wait()
	seen := 0
	for i := 1; i <= keys; i++ {
		k := uint64(i)<<32 | uint64(keys+1)
		if v, ok := sm.get(k); ok {
			seen++
			if v != val(k) {
				t.Fatalf("after the run get(%#x) = %v, want %v", k, v, val(k))
			}
		}
	}
	if seen != sm.Len() {
		t.Errorf("Len = %d, but %d distinct keys are present", sm.Len(), seen)
	}
	if seen < keys/2 {
		t.Errorf("only %d of %d keys were memoized", seen, keys)
	}
}

// TestSimMemoStopsAtCap: insertion stops at the cap, what is in stays
// served, and what is not is simply a miss. The memo is brought to five
// entries below its cap by hand — a table of the size growth ends at, and the
// entry count — instead of by a million inserts.
func TestSimMemoStopsAtCap(t *testing.T) {
	sm := NewSimMemo()
	var full *simMemoTable
	for full == nil || len(full.slots) < 2*simMemoCap {
		full = grownSimMemoTable(full)
	}
	sm.tab.Store(full)
	sm.n.Store(simMemoCap - 5)
	key := func(i int) uint64 { return uint64(i)<<32 | uint64(simMemoCap+100) }
	for i := 1; i <= 10; i++ {
		sm.put(key(i), 0.5)
	}
	if sm.Len() != simMemoCap || sm.Len() != sm.Cap() {
		t.Fatalf("Len = %d, Cap = %d, want both %d", sm.Len(), sm.Cap(), simMemoCap)
	}
	if _, ok := sm.get(key(5)); !ok {
		t.Error("the last pair inserted below the cap is not served")
	}
	if _, ok := sm.get(key(6)); ok {
		t.Error("a pair past the cap was inserted")
	}
	if slots := len(sm.tab.Load().slots); slots != 2*simMemoCap {
		t.Errorf("table has %d slots at the cap, want %d: it must stay half empty and stop growing", slots, 2*simMemoCap)
	}
}

// TestSimMemoKeysEveryAttribute: one memo holds the edit-distance pairs of
// every attribute a scheme compares — not only labels — under their symbol
// pairs, and a later scan over the same memo (the engine's outlives its
// scans) comparing the same attributes with other weights computes nothing
// new.
func TestSimMemoKeysEveryAttribute(t *testing.T) {
	a, b := resolvedPair(3, 8)
	labels := NewSimMemo()
	WeightMatrixMemo(a, b, PLL(), AllPairs, labels)
	memo := NewSimMemo()
	WeightMatrixMemo(a, b, PW0(), AllPairs, memo) // labels, descriptions, scripts
	n := memo.Len()
	if labels.Len() == 0 || n <= labels.Len() {
		t.Fatalf("pw0 memoized %d pairs, pll %d; want pw0 to add its other attributes' pairs", n, labels.Len())
	}
	WeightMatrixMemo(a, b, PW3(), AllPairs, memo)
	if memo.Len() != n {
		t.Errorf("pw3 over pw0's memo grew it from %d to %d pairs, want none: same attributes, same values", n, memo.Len())
	}
}
