package lint_test

import (
	"testing"
	"time"

	"repro/internal/lint"
)

// BenchmarkWfsimvet times the full 8-analyzer suite — CFG construction,
// dataflow fixpoints, and all syntactic passes — over every package of the
// module, exactly the work the CI lint gate does after loading. The guard
// at the end keeps the gate honest: if the suite creeps past 5s per run,
// the benchmark fails rather than letting CI latency drift silently.
// (Loading and type-checking the tree is measured once, untimed: it is
// shared with go vet and not a property of the analyzers.)
func BenchmarkWfsimvet(b *testing.B) {
	root, err := lint.ModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	u, err := lint.Load(root)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diags, err := lint.RunAnalyzers(u, u.Targets, lint.All)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range diags {
			if !d.Suppressed {
				b.Fatalf("unsuppressed finding during benchmark: %v", d)
			}
		}
	}
	b.StopTimer()
	if avg := b.Elapsed() / time.Duration(b.N); avg > 5*time.Second {
		b.Fatalf("8-analyzer suite averaged %v per run; the lint-gate budget is 5s", avg)
	}
}
