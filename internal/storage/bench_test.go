package storage

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/gen"
)

// benchLog builds a data directory whose log holds one add-record per
// workflow (n records, n ops) and returns the directory.
func benchLog(b *testing.B, n int) string {
	b.Helper()
	c, err := gen.Generate(testProfile(n), 42)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	s, _, _, err := Open(dir, Options{NoSync: true, CompactBytes: -1, CompactRecords: 0})
	if err != nil {
		b.Fatal(err)
	}
	for i, w := range c.Repo.Snapshot().Workflows() {
		if err := s.Commit(uint64(i+1), []corpus.Op{{Kind: corpus.OpAdd, ID: w.ID, Workflow: w}}); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkReplay measures a cold boot that recovers purely from the
// mutation log: n records replayed per Open. ReportMetric exposes the
// records/sec replay rate alongside the per-boot wall time.
func BenchmarkReplay(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("workflows=%d", n), func(b *testing.B) {
			dir := benchLog(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, wfs, gen, err := Open(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if len(wfs) != n || gen != uint64(n) {
					b.Fatalf("recovered %d workflows at generation %d, want %d", len(wfs), gen, n)
				}
				s.Close()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
		})
	}
}

// BenchmarkBootFromSnapshot measures the same boot after a checkpoint: the
// log is empty and recovery deserializes one snapshot.
func BenchmarkBootFromSnapshot(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("workflows=%d", n), func(b *testing.B) {
			dir := benchLog(b, n)
			s, wfs, g, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Compact(g, wfs); err != nil {
				b.Fatal(err)
			}
			s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, wfs, gen, err := Open(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if len(wfs) != n || gen != uint64(n) {
					b.Fatalf("recovered %d workflows at generation %d, want %d", len(wfs), gen, n)
				}
				s.Close()
			}
		})
	}
}

// BenchmarkCommit measures the append path itself — one single-add record
// per op, fsync included (the cost every mutation batch pays before it is
// acknowledged).
func BenchmarkCommit(b *testing.B) {
	c, err := gen.Generate(testProfile(256), 42)
	if err != nil {
		b.Fatal(err)
	}
	wfs := c.Repo.Snapshot().Workflows()
	for _, sync := range []bool{true, false} {
		name := "fsync"
		if !sync {
			name = "nosync"
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			s, _, _, err := Open(dir, Options{NoSync: !sync, CompactBytes: -1, CompactRecords: 0})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := wfs[i%len(wfs)]
				op := corpus.Op{Kind: corpus.OpAdd, ID: w.ID, Workflow: w}
				if err := s.Commit(uint64(i+1), []corpus.Op{op}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/sec")
		})
	}
}

// BenchmarkCompact measures one compaction as an ingest_durable server makes
// it: a 2 000-workflow view over a 1 040-record log (one slice of that
// workload, one replace per record), keeping a tail of 0 or 16 records newer
// than the view. The log is refilled outside the timer.
func BenchmarkCompact(b *testing.B) {
	c, err := gen.Generate(testProfile(2000), 42)
	if err != nil {
		b.Fatal(err)
	}
	wfs := c.Repo.Snapshot().Workflows()
	for _, tail := range []int{0, 16} {
		b.Run(fmt.Sprintf("tail=%d", tail), func(b *testing.B) {
			s, _, _, err := Open(b.TempDir(), Options{NoSync: true, CompactBytes: -1, CompactRecords: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			g := uint64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for s.Stats().LogRecords < 1040 {
					g++
					w := wfs[int(g)%len(wfs)]
					if err := s.Commit(g, []corpus.Op{{Kind: corpus.OpReplace, ID: w.ID, Workflow: w}}); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := s.Compact(g-uint64(tail), wfs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
