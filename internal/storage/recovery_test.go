package storage

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/gen"
	"repro/internal/workflow"
)

// testProfile is a small synthetic corpus profile for recovery tests.
func testProfile(n int) gen.Profile {
	p := gen.Taverna()
	p.Workflows = n
	p.Clusters = max(2, n/8)
	return p
}

// synthBatches turns a generated corpus into a deterministic stream of
// mutation batches: adds in groups, with interleaved removes and replaces
// of already-present workflows — the shape of a live ingest workload.
func synthBatches(t *testing.T, n int, seed int64) [][]corpus.Op {
	t.Helper()
	c, err := gen.Generate(testProfile(n), seed)
	if err != nil {
		t.Fatalf("generate corpus: %v", err)
	}
	wfs := c.Repo.Snapshot().Workflows()
	r := rand.New(rand.NewSource(seed + 1))
	var batches [][]corpus.Op
	var present []string
	for i := 0; i < len(wfs); {
		batch := []corpus.Op{}
		for k := 0; k < 1+r.Intn(4) && i < len(wfs); k++ {
			batch = append(batch, corpus.Op{Kind: corpus.OpAdd, ID: wfs[i].ID, Workflow: wfs[i]})
			present = append(present, wfs[i].ID)
			i++
		}
		if len(present) > 4 && r.Intn(3) == 0 {
			victim := present[r.Intn(len(present))]
			switch r.Intn(2) {
			case 0:
				batch = append(batch, corpus.Op{Kind: corpus.OpRemove, ID: victim})
				for j, id := range present {
					if id == victim {
						present = append(present[:j], present[j+1:]...)
						break
					}
				}
			case 1:
				repl := workflow.New(victim)
				repl.Annotations.Title = "replaced " + victim
				repl.AddModule(&workflow.Module{ID: "m1", Label: "mutated_step", Type: workflow.TypeWSDL})
				batch = append(batch, corpus.Op{Kind: corpus.OpReplace, ID: victim, Workflow: repl})
			}
		}
		batches = append(batches, batch)
	}
	return batches
}

// commitAll drives batches through a real Repository with the store
// installed as commit hook — the exact transaction pipeline the engine
// uses — and returns the log size after each commit (record boundaries).
func commitAll(t *testing.T, s *Store, batches [][]corpus.Op) []int64 {
	t.Helper()
	repo, err := corpus.NewRepository()
	if err != nil {
		t.Fatal(err)
	}
	repo.SetCommitHook(s.Commit)
	boundaries := make([]int64, 0, len(batches))
	for i, b := range batches {
		if _, err := repo.ApplyBatch(b); err != nil {
			t.Fatalf("apply batch %d: %v", i, err)
		}
		boundaries = append(boundaries, s.Stats().LogBytes)
	}
	return boundaries
}

// stateAfter replays the first k batches directly through an in-memory
// repository — the reference recovery must match.
func stateAfter(t *testing.T, batches [][]corpus.Op, k int) []*workflow.Workflow {
	t.Helper()
	repo, err := corpus.NewRepository()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if _, err := repo.ApplyBatch(batches[i]); err != nil {
			t.Fatalf("reference apply batch %d: %v", i, err)
		}
	}
	return repo.Snapshot().Workflows()
}

// mustJSON marshals workflows for content comparison (pointer identity
// differs between recovered and reference states; content must not).
func mustJSON(t *testing.T, wfs []*workflow.Workflow) string {
	t.Helper()
	b, err := json.Marshal(wfs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRecoveryEqualsCommittedPrefix is the crash-consistency property: for
// a log truncated at ANY byte position — simulating a crash mid-append —
// recovery yields exactly the repository produced by applying the batches
// whose records were fully durable, and nothing else.
func TestRecoveryEqualsCommittedPrefix(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := mustOpen(t, dir, Options{})
	batches := synthBatches(t, 32, 42)
	boundaries := commitAll(t, s, batches)
	s.Close()
	logPath := filepath.Join(dir, walName)
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(7))
	cuts := []int{0, 3, len(walMagic), len(walMagic) + 1, len(full) - 1, len(full)}
	for i := 0; i < 40; i++ {
		cuts = append(cuts, r.Intn(len(full)+1))
	}
	for _, cut := range cuts {
		trial := t.TempDir()
		if err := os.WriteFile(filepath.Join(trial, walName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, wfs, gn, err := Open(trial, Options{})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}

		committed := 0
		for _, b := range boundaries {
			if int64(cut) >= b {
				committed++
			}
		}
		want := stateAfter(t, batches, committed)
		if gn != uint64(committed) {
			t.Fatalf("cut %d: recovered generation %d, want %d", cut, gn, committed)
		}
		if got, wantJSON := mustJSON(t, wfs), mustJSON(t, want); got != wantJSON {
			t.Fatalf("cut %d: recovered state diverges from committed prefix of %d batches", cut, committed)
		}
		// The truncated store must now be writable: recovery re-anchors the
		// log so new commits extend the committed prefix.
		if err := s2.Commit(gn+1, []corpus.Op{addOp(wf("post-crash", "new"))}); err != nil {
			t.Fatalf("cut %d: commit after recovery: %v", cut, err)
		}
		s2.Close()
	}
}

// TestRecoveryWithSnapshotAndTruncatedTail runs the same property across a
// compaction boundary: a snapshot covers a prefix, and the log tail beyond
// it is truncated at random points.
func TestRecoveryWithSnapshotAndTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := mustOpen(t, dir, Options{})
	batches := synthBatches(t, 28, 99)
	half := len(batches) / 2

	repo, err := corpus.NewRepository()
	if err != nil {
		t.Fatal(err)
	}
	repo.SetCommitHook(s.Commit)
	// boundaries[j] is the log size after batch half+1+j committed — the
	// tail batches beyond the compaction point; earlier batches live only
	// in the snapshot.
	var boundaries []int64
	for i, b := range batches {
		if _, err := repo.ApplyBatch(b); err != nil {
			t.Fatalf("apply batch %d: %v", i, err)
		}
		if i == half {
			snap := repo.Snapshot()
			if err := s.Compact(snap.Generation(), snap.Workflows()); err != nil {
				t.Fatalf("compact: %v", err)
			}
			continue
		}
		if i > half {
			boundaries = append(boundaries, s.Stats().LogBytes)
		}
	}
	s.Close()
	full, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	snapName := snapshotName(uint64(half + 1))
	snapData, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(13))
	for i := 0; i < 25; i++ {
		cut := r.Intn(len(full) + 1)
		trial := t.TempDir()
		if err := os.WriteFile(filepath.Join(trial, snapName), snapData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(trial, walName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, wfs, gn, err := Open(trial, Options{})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		committed := half + 1 // covered by the snapshot even with an empty log
		for j, b := range boundaries {
			if int64(cut) >= b {
				committed = half + 1 + j + 1
			}
		}
		want := stateAfter(t, batches, committed)
		if gn != uint64(committed) {
			t.Fatalf("cut %d: recovered generation %d, want %d", cut, gn, committed)
		}
		if got, wantJSON := mustJSON(t, wfs), mustJSON(t, want); got != wantJSON {
			t.Fatalf("cut %d: recovered state diverges at %d committed batches", cut, committed)
		}
		s2.Close()
	}
}

// TestTornFinalRecord pins the torn-tail contract: garbage appended after
// valid records — a crash mid-append — is truncated with a warning, the
// valid prefix recovers, and the flag is reported in RecoveryStats.
func TestTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := mustOpen(t, dir, Options{})
	_ = s.Commit(1, []corpus.Op{addOp(wf("a", "x"))})
	_ = s.Commit(2, []corpus.Op{addOp(wf("b", "y"))})
	intactSize := s.Stats().LogBytes
	s.Close()

	logPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible torn write: a whole header claiming more payload than was
	// ever flushed.
	if _, err := f.Write([]byte{0x00, 0x00, 0x40, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	warnings := 0
	s2, wfs, gn, err := Open(dir, Options{Warnf: func(string, ...any) { warnings++ }})
	if err != nil {
		t.Fatalf("recovery with torn tail: %v", err)
	}
	defer s2.Close()
	if gn != 2 || len(wfs) != 2 {
		t.Fatalf("recovered %d workflows at generation %d, want 2 at 2", len(wfs), gn)
	}
	st := s2.Stats()
	if !st.Recovery.TornTailTruncated {
		t.Fatal("torn tail not reported in recovery stats")
	}
	if warnings == 0 {
		t.Fatal("torn tail produced no warning")
	}
	if st.LogBytes != intactSize {
		t.Fatalf("log not truncated back to the valid prefix: %d bytes, want %d", st.LogBytes, intactSize)
	}
	// And the store keeps working past the repaired tail.
	if err := s2.Commit(3, []corpus.Op{addOp(wf("c", "z"))}); err != nil {
		t.Fatalf("commit after torn-tail repair: %v", err)
	}
	s3, wfs3, gn3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if gn3 != 3 || len(wfs3) != 3 {
		t.Fatalf("post-repair recovery: %d workflows at generation %d, want 3 at 3", len(wfs3), gn3)
	}
}

// TestBitRotMidLogStopsReplay pins the conservative corruption contract: a
// checksum failure that is NOT at the tail still truncates from the first
// bad frame — everything after it is unreachable, everything before it
// recovers. (A crash can only tear the tail; mid-log rot is disk damage,
// and refusing to skip over it keeps replay causally consistent.)
func TestBitRotMidLogStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := mustOpen(t, dir, Options{})
	_ = s.Commit(1, []corpus.Op{addOp(wf("a", "x"))})
	firstEnd := s.Stats().LogBytes
	_ = s.Commit(2, []corpus.Op{addOp(wf("b", "y"))})
	_ = s.Commit(3, []corpus.Op{addOp(wf("c", "z"))})
	s.Close()

	logPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[firstEnd+frameHeaderSize] ^= 0xff // corrupt record 2's payload
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, wfs, gn, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery with mid-log rot: %v", err)
	}
	defer s2.Close()
	if gn != 1 || len(wfs) != 1 || wfs[0].ID != "a" {
		t.Fatalf("recovered %v at generation %d, want [a] at 1", ids(wfs), gn)
	}
	if !s2.Stats().Recovery.TornTailTruncated {
		t.Fatal("mid-log corruption not reported as truncation")
	}
}
