package cluster

import "testing"

func blockMatrix() *Matrix {
	// Two tight blocks {0,1,2} and {3,4}, near-zero across.
	n := 5
	m := &Matrix{IDs: []string{"a", "b", "c", "d", "e"}, Sim: make([][]float64, n)}
	for i := range m.Sim {
		m.Sim[i] = make([]float64, n)
		m.Sim[i][i] = 1
	}
	set := func(i, j int, v float64) { m.Sim[i][j] = v; m.Sim[j][i] = v }
	set(0, 1, 0.9)
	set(0, 2, 0.85)
	set(1, 2, 0.95)
	set(3, 4, 0.9)
	set(0, 3, 0.05)
	set(1, 4, 0.1)
	return m
}

func TestAgglomerativeBlocks(t *testing.T) {
	c := Agglomerative(blockMatrix(), 0.5)
	if c.K != 2 {
		t.Fatalf("K = %d, want 2 (assign %v)", c.K, c.Assign)
	}
	if c.Assign[0] != c.Assign[1] || c.Assign[1] != c.Assign[2] {
		t.Errorf("block 1 split: %v", c.Assign)
	}
	if c.Assign[3] != c.Assign[4] || c.Assign[0] == c.Assign[3] {
		t.Errorf("block 2 wrong: %v", c.Assign)
	}
}

func TestAgglomerativeThresholdOne(t *testing.T) {
	// With minSim above all pairwise similarities everything stays a
	// singleton.
	c := Agglomerative(blockMatrix(), 0.99)
	if c.K != 5 {
		t.Errorf("K = %d, want 5 singletons", c.K)
	}
}

func TestComponentsBlocks(t *testing.T) {
	c := Components(blockMatrix(), 0.5)
	if c.K != 2 {
		t.Fatalf("K = %d, want 2 (assign %v)", c.K, c.Assign)
	}
}

func TestComponentsChaining(t *testing.T) {
	// Single linkage chains: a-b and b-c linked, a-c not — still one
	// component.
	n := 3
	m := &Matrix{IDs: []string{"a", "b", "c"}, Sim: make([][]float64, n)}
	for i := range m.Sim {
		m.Sim[i] = make([]float64, n)
		m.Sim[i][i] = 1
	}
	m.Sim[0][1], m.Sim[1][0] = 0.9, 0.9
	m.Sim[1][2], m.Sim[2][1] = 0.9, 0.9
	c := Components(m, 0.5)
	if c.K != 1 {
		t.Errorf("K = %d, want 1 chained component", c.K)
	}
}

func TestRandIndexAndPurity(t *testing.T) {
	a := Clustering{Assign: []int{0, 0, 1, 1}, K: 2}
	if ri, err := RandIndex(a, a); err != nil || ri != 1 {
		t.Errorf("self Rand = %v, %v", ri, err)
	}
	b := Clustering{Assign: []int{0, 1, 0, 1}, K: 2}
	ri, err := RandIndex(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs: (0,1)s/d (0,2)d/s (0,3)d/d (1,2)d/d (1,3)d/s (2,3)s/d -> agree 2/6.
	if ri < 0.33 || ri > 0.34 {
		t.Errorf("Rand = %v, want 1/3", ri)
	}
	p, err := Purity(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0.5 {
		t.Errorf("purity = %v, want 0.5", p)
	}
	if _, err := RandIndex(a, Clustering{Assign: []int{0}}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Purity(a, Clustering{Assign: []int{0}}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestEmptyMatrix(t *testing.T) {
	c := Agglomerative(&Matrix{}, 0.5)
	if c.K != 0 {
		t.Errorf("empty K = %d", c.K)
	}
}

func BenchmarkAgglomerative60(b *testing.B) {
	m := &Matrix{IDs: make([]string, 60), Sim: make([][]float64, 60)}
	for i := range m.Sim {
		m.IDs[i] = string(rune('a' + i%26))
		m.Sim[i] = make([]float64, 60)
		for j := range m.Sim[i] {
			if i/10 == j/10 {
				m.Sim[i][j] = 0.8
			} else {
				m.Sim[i][j] = 0.1
			}
		}
		m.Sim[i][i] = 1
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Agglomerative(m, 0.5)
	}
}
