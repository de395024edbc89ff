package module

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/symtab"
	"repro/internal/workflow"
)

// resolvedPair builds two workflows of n random modules each, resolved by one
// fresh symbol table.
func resolvedPair(seed int64, n int) (*workflow.Workflow, *workflow.Workflow) {
	r := rand.New(rand.NewSource(seed))
	tab := symtab.New()
	a, b := workflow.New("a"), workflow.New("b")
	for i := 0; i < n; i++ {
		a.AddModule(randModule(r))
		b.AddModule(randModule(r))
	}
	a.Resolve(tab)
	b.Resolve(tab)
	return a, b
}

// TestWeightMatrixPathsAgree: the fresh matrix (WeightMatrix), the memoized
// one and the pooled one (AcquireMatrix, reused across shapes so stale cells
// would show) hold the same bits and the same comparison counts, and all of
// them equal the per-pair definition — Allows, then Similarity.
func TestWeightMatrixPathsAgree(t *testing.T) {
	memoized := 0
	for seed := int64(0); seed < 40; seed++ {
		a, b := resolvedPair(seed, 1+int(seed%9))
		memo := NewSimMemo() // one per symbol table: IDs of two tables must never meet in a memo
		if seed%3 == 0 {
			b = b.Clone() // unresolved side: string path
		}
		if seed%5 == 4 {
			a, b = b, a
		}
		for _, s := range []Scheme{PLL(), PW0(), PLM()} {
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
							want = s.Similarity(x, y)
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

// TestLabelSimConcurrent hammers one LabelSim from several goroutines across
// several table growths: every lookup returns the value its key was stored
// with (or misses), and each distinct key is counted once.
func TestLabelSimConcurrent(t *testing.T) {
	ls := NewLabelSim()
	const keys = 5 * labelSimMinSlots // forces a few doublings
	val := func(k uint64) float64 { return float64(k%1000) / 1000 }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 4*keys; n++ {
				k := uint64(1+r.Intn(keys))<<32 | uint64(keys+1)
				if v, ok := ls.get(k); ok {
					if v != val(k) {
						t.Errorf("get(%#x) = %v, want %v", k, v, val(k))
						return
					}
					continue
				}
				ls.put(k, val(k))
			}
		}(g)
	}
	wg.Wait()
	seen := 0
	for i := 1; i <= keys; i++ {
		k := uint64(i)<<32 | uint64(keys+1)
		if v, ok := ls.get(k); ok {
			seen++
			if v != val(k) {
				t.Fatalf("after the run get(%#x) = %v, want %v", k, v, val(k))
			}
		}
	}
	if seen != ls.Len() {
		t.Errorf("Len = %d, but %d distinct keys are present", ls.Len(), seen)
	}
	if seen < keys/2 {
		t.Errorf("only %d of %d keys were memoized", seen, keys)
	}
}

// TestLabelSimStopsAtCap: insertion stops at the cap, what is in stays
// served, and what is not is simply a miss. The memo is brought to five
// entries below its cap by hand — a table of the size growth ends at, and the
// entry count — instead of by a million inserts.
func TestLabelSimStopsAtCap(t *testing.T) {
	ls := NewLabelSim()
	var full *labelSimTable
	for full == nil || len(full.slots) < 2*simMemoCap {
		full = grownLabelSimTable(full)
	}
	ls.tab.Store(full)
	ls.n.Store(simMemoCap - 5)
	key := func(i int) uint64 { return uint64(i)<<32 | uint64(simMemoCap+100) }
	for i := 1; i <= 10; i++ {
		ls.put(key(i), 0.5)
	}
	if ls.Len() != simMemoCap || ls.Len() != ls.Cap() {
		t.Fatalf("Len = %d, Cap = %d, want both %d", ls.Len(), ls.Cap(), simMemoCap)
	}
	if _, ok := ls.get(key(5)); !ok {
		t.Error("the last pair inserted below the cap is not served")
	}
	if _, ok := ls.get(key(6)); ok {
		t.Error("a pair past the cap was inserted")
	}
	if slots := len(ls.tab.Load().slots); slots != 2*simMemoCap {
		t.Errorf("table has %d slots at the cap, want %d: it must stay half empty and stop growing", slots, 2*simMemoCap)
	}
}

// TestSimMemoSharesLabelSim: memos built over one LabelSim share its ID-keyed
// entries and keep their string-keyed ones to themselves; a bare memo shares
// nothing.
func TestSimMemoSharesLabelSim(t *testing.T) {
	a, b := resolvedPair(3, 8)
	ls := NewLabelSim()
	first := NewSimMemoWith(ls)
	WeightMatrixMemo(a, b, PW0(), AllPairs, first) // labels by ID, scripts by string
	ids := ls.Len()
	if ids == 0 || first.Len() <= ids {
		t.Fatalf("after one matrix: %d ID-keyed entries, %d in all; want both halves used", ids, first.Len())
	}
	if second := NewSimMemoWith(ls); second.Len() != ids {
		t.Errorf("a second memo over the same LabelSim starts with %d entries, want the %d shared ID-keyed ones", second.Len(), ids)
	}
	if bare := NewSimMemo(); bare.Len() != 0 {
		t.Errorf("a bare memo starts with %d entries", bare.Len())
	}
}
