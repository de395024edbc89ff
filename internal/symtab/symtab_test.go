package symtab

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternAssignsDenseStableIDs(t *testing.T) {
	tab := New()
	if got := tab.Len(); got != 1 {
		t.Fatalf("new table Len = %d, want 1 (reserved empty string)", got)
	}
	if id := tab.Intern(""); id != 0 {
		t.Fatalf(`Intern("") = %d, want 0`, id)
	}

	words := []string{"fetch_sequence", "run_blast", "plot_hits"}
	for i, w := range words {
		if id := tab.Intern(w); id != uint32(i+1) {
			t.Fatalf("Intern(%q) = %d, want %d (dense assignment order)", w, id, i+1)
		}
	}
	// Re-interning never reassigns.
	for i, w := range words {
		if id := tab.Intern(w); id != uint32(i+1) {
			t.Fatalf("re-Intern(%q) = %d, want %d", w, id, i+1)
		}
	}
	if id, ok := tab.Lookup("run_blast"); !ok || id != 2 {
		t.Fatalf("Lookup(run_blast) = %d,%v, want 2,true", id, ok)
	}
	if _, ok := tab.Lookup("never_seen"); ok {
		t.Fatal("Lookup of unseen string reported ok")
	}
	if got := tab.String(2); got != "run_blast" {
		t.Fatalf("String(2) = %q", got)
	}
	// Zero and out-of-range IDs render as "", never a placeholder.
	if tab.String(0) != "" || tab.String(99) != "" {
		t.Error(`String(0) and String(out-of-range) must be ""`)
	}
}

// Re-interning the same strings in the same order into a fresh table
// reproduces the same IDs: assignment is a deterministic function of the
// interning sequence.
func TestReplayReproducesIDs(t *testing.T) {
	a := New()
	for i := 0; i < 100; i++ {
		a.Intern(fmt.Sprintf("sym_%d", i%40)) // duplicates interleaved
	}
	b := New()
	for i := 0; i < a.Len(); i++ {
		b.Intern(a.String(uint32(i)))
	}
	if a.Len() != b.Len() {
		t.Fatalf("replayed table has %d symbols, want %d", b.Len(), a.Len())
	}
	for i := 0; i < a.Len(); i++ {
		s := a.String(uint32(i))
		if id, ok := b.Lookup(s); !ok || id != uint32(i) {
			t.Fatalf("symbol %q: replayed ID %d, want %d", s, id, i)
		}
	}
}

// Concurrent interning of an overlapping vocabulary must stay consistent:
// one ID per string, dense ID space, Len symbols total.
func TestConcurrentIntern(t *testing.T) {
	tab := New()
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	ids := make([][]uint32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]uint32, perWorker)
			for i := 0; i < perWorker; i++ {
				ids[w][i] = tab.Intern(fmt.Sprintf("sym_%d", (i+w)%300))
			}
		}(w)
	}
	wg.Wait()

	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			s := fmt.Sprintf("sym_%d", (i+w)%300)
			if id, ok := tab.Lookup(s); !ok || id != ids[w][i] {
				t.Fatalf("worker %d saw ID %d for %q, table says %d", w, ids[w][i], s, id)
			}
		}
	}
	if tab.Len() != 301 { // 300 distinct strings + reserved ""
		t.Fatalf("Len = %d, want 301", tab.Len())
	}
	seen := map[string]bool{}
	for i := 0; i < tab.Len(); i++ {
		s := tab.String(uint32(i))
		if seen[s] {
			t.Fatalf("symbol %q appears twice (second at ID %d)", s, i)
		}
		seen[s] = true
	}
}
