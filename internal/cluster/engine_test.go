package cluster_test

// The similarity matrix is built by the engine's block scan
// (shard.Coordinator.Matrix), so the tests that need a real matrix drive
// wfsim.Engine.Cluster — the only production caller of this package.

import (
	"context"
	"errors"
	"testing"

	"repro/pkg/wfsim"
)

func clusterEngine(t testing.TB, workflows, clusters int) (*wfsim.Engine, *wfsim.GeneratedCorpus) {
	t.Helper()
	p := wfsim.TavernaProfile()
	p.Workflows = workflows
	p.Clusters = clusters
	c, err := wfsim.GenerateCorpus(p, 23)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := wfsim.New(c.Repo)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

// End-to-end: clustering a generated corpus with MS_ip_te_pll must recover
// the latent cluster structure well above chance.
func TestClusteringRecoversGroundTruth(t *testing.T) {
	eng, c := clusterEngine(t, 60, 5)
	minSim := 0.45
	res, err := eng.Cluster(context.Background(), wfsim.ClusterOptions{Measure: "MS_ip_te_pll", MinSimilarity: &minSim})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 0 {
		t.Errorf("skipped %d pairs", res.Skipped)
	}
	ref := map[string]int{}
	for id, meta := range c.Truth.Meta {
		ref[id] = meta.Cluster
	}
	if ri := res.RandIndex(ref); ri < 0.75 {
		t.Errorf("Rand index = %.3f, want >= 0.75", ri)
	}
	if purity := res.Purity(ref); purity < 0.75 {
		t.Errorf("purity = %.3f, want >= 0.75", purity)
	}
}

func BenchmarkCluster60(b *testing.B) {
	eng, _ := clusterEngine(b, 60, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Cluster(context.Background(), wfsim.ClusterOptions{Measure: "MS_np_ta_pll"}); err != nil {
			b.Fatal(err)
		}
	}
}

// The matrix build behind Cluster aborts with the context's error.
func TestBuildMatrixCancelledContext(t *testing.T) {
	eng, _ := clusterEngine(t, 30, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Cluster(ctx, wfsim.ClusterOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
