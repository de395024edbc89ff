package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/corpus"
	"repro/internal/symtab"
	"repro/internal/workflow"
)

// ErrClosed is returned by operations on a closed Store — e.g. a mutation
// committed after graceful shutdown already flushed the final snapshot.
var ErrClosed = errors.New("storage: store is closed")

// Options tunes a Store. The zero value is production-ready: every commit
// is fsynced and compaction triggers at the default thresholds.
type Options struct {
	// CompactBytes triggers compaction when the log exceeds this many bytes
	// (default 8 MiB; < 0 disables the byte trigger).
	CompactBytes int64
	// CompactRecords triggers compaction when the log holds this many
	// records (default 4096; < 0 disables the record trigger).
	CompactRecords int64
	// NoSync skips the per-commit fsync. Only for tests and benchmarks:
	// a crash may then lose recent commits (never corrupt the store).
	NoSync bool
	// Warnf receives recovery warnings (torn tail truncated, unreadable
	// snapshot skipped). Nil discards them; RecoveryStats records the facts
	// either way.
	Warnf func(format string, args ...any)
	// Symtab is unused: symbol IDs are process-local and nothing about them
	// is stored. The field survives only because the frozen benchmark
	// harness (bench/wfsimload/layers.go) sets it; the next [benchmark] PR
	// drops it there and here.
	Symtab *symtab.Table
}

func (o Options) withDefaults() Options {
	if o.CompactBytes == 0 {
		o.CompactBytes = 8 << 20
	}
	if o.CompactRecords == 0 {
		o.CompactRecords = 4096
	}
	if o.Warnf == nil {
		o.Warnf = func(string, ...any) {}
	}
	return o
}

// RecoveryStats describes what Open found and did.
type RecoveryStats struct {
	// SnapshotLoaded reports whether a snapshot seeded recovery.
	SnapshotLoaded bool `json:"snapshot_loaded"`
	// SnapshotGeneration is the loaded snapshot's generation (0 if none).
	SnapshotGeneration uint64 `json:"snapshot_generation"`
	// ReplayedRecords is the number of log records replayed on top.
	ReplayedRecords int64 `json:"replayed_records"`
	// ReplayedOps is the number of mutations inside those records.
	ReplayedOps int64 `json:"replayed_ops"`
	// TornTailTruncated reports whether trailing bytes of the log failed
	// validation and were truncated — the normal aftermath of a crash
	// mid-append; everything before them recovered intact.
	TornTailTruncated bool `json:"torn_tail_truncated"`
	// Generation is the recovered repository generation.
	Generation uint64 `json:"generation"`
	// Workflows is the recovered repository size.
	Workflows int `json:"workflows"`
}

// Stats describes a Store's current state for monitoring.
type Stats struct {
	// Dir is the data directory.
	Dir string `json:"dir"`
	// LogBytes is the mutation log's current size.
	LogBytes int64 `json:"log_bytes"`
	// LogRecords is the number of records currently in the log (replayed
	// tail plus appends since the last compaction).
	LogRecords int64 `json:"log_records"`
	// SnapshotGeneration is the generation covered by the latest durable
	// snapshot (0 when none has been written yet).
	SnapshotGeneration uint64 `json:"snapshot_generation"`
	// Compactions counts snapshot-compaction cycles since Open.
	Compactions int64 `json:"compactions"`
	// Recovery reports what boot-time recovery found.
	Recovery RecoveryStats `json:"recovery"`
}

// Store is the durable backing of one repository: a write-ahead mutation
// log plus snapshot checkpoints in a single data directory. Commit is safe
// for concurrent use with Compact; Open recovers the directory's state.
// The store knows where every record of its log starts, so a compaction
// copies the records it keeps by offset and never decodes the log: it
// costs the snapshot write plus the kept bytes, not the log's length.
type Store struct {
	dir  string
	opts Options

	mu          sync.Mutex
	f           *os.File    // the log, positioned for append
	recs        []recordPos // every record in the log, in file order
	buf         []byte      // Commit's frame, Compact's new log
	logBytes    int64
	logRecords  int64
	snapGen     uint64
	compactions int64
	lastGen     uint64
	closed      bool
	recovery    RecoveryStats
	// wedged is non-nil when a later record could be lost at the next boot:
	// a failed append left torn bytes that could not be rolled back (a later
	// append would land behind them, invisible to recovery, which stops at
	// the first torn frame), or a compaction found a record it must keep
	// unreadable on disk (recovery stops there too). While wedged, Commit
	// refuses — an explicit error to the writer instead of a silent loss at
	// the next boot. A successful Compact clears the wedge: it rewrites the
	// log from valid frames only, and succeeds past an unreadable record
	// only at a generation whose snapshot covers it.
	wedged error
}

// Open opens (creating if needed) the data directory and recovers its
// state: the latest valid snapshot, with the log tail replayed on top up to
// the last fully-committed generation. A torn final record — a crash
// mid-append — is truncated with a warning; a semantic inconsistency
// between snapshot and log (which no crash can produce) is an error.
// The recovered workflows are returned in repository insertion order.
func Open(dir string, opts Options) (*Store, []*workflow.Workflow, uint64, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	snap, haveSnap, err := loadLatestSnapshot(dir, opts.Warnf)
	if err != nil {
		return nil, nil, 0, err
	}
	logPath := filepath.Join(dir, walName)
	recs, validSize, torn, err := readLog(logPath)
	if err != nil {
		return nil, nil, 0, err
	}
	if torn {
		opts.Warnf("storage: %s: torn tail after offset %d truncated; recovering to last committed record", walName, validSize)
	}

	state := newReplayState(snap.Workflows)
	gen := snap.Gen
	stats := RecoveryStats{
		SnapshotLoaded:     haveSnap,
		SnapshotGeneration: snap.Gen,
		TornTailTruncated:  torn,
	}
	logRecords := int64(0)
	pos := make([]recordPos, len(recs))
	for i, rec := range recs {
		pos[i] = recordPos{gen: rec.Gen, off: rec.off}
		if rec.Gen <= gen {
			// Covered by the snapshot (or a compaction that died between
			// snapshot write and log rewrite): already applied.
			continue
		}
		if rec.Gen != gen+1 {
			return nil, nil, 0, fmt.Errorf("storage: %s: record generation %d after %d (log and snapshot disagree)", walName, rec.Gen, gen)
		}
		ops, err := decodeOps(rec.Ops)
		if err != nil {
			return nil, nil, 0, err
		}
		if err := state.apply(ops); err != nil {
			return nil, nil, 0, fmt.Errorf("storage: %s: replay to generation %d: %w", walName, rec.Gen, err)
		}
		gen = rec.Gen
		logRecords++
		stats.ReplayedRecords++
		stats.ReplayedOps += int64(len(ops))
	}

	f, size, err := openLogForAppend(logPath, validSize)
	if err != nil {
		return nil, nil, 0, err
	}
	if torn {
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
	}
	wfs := state.workflows()
	stats.Generation = gen
	stats.Workflows = len(wfs)
	s := &Store{
		dir:        dir,
		opts:       opts,
		f:          f,
		recs:       pos,
		logBytes:   size,
		logRecords: logRecords,
		snapGen:    snap.Gen,
		lastGen:    gen,
		recovery:   stats,
	}
	return s, wfs, gen, nil
}

// replayState reproduces repository insertion-order semantics while
// replaying logged batches: adds append, removes splice, replaces keep
// their position — exactly what corpus.Repository does on commit.
type replayState struct {
	order []*workflow.Workflow
	byID  map[string]int // ID -> index in order
}

func newReplayState(wfs []*workflow.Workflow) *replayState {
	st := &replayState{
		order: append([]*workflow.Workflow(nil), wfs...),
		byID:  make(map[string]int, len(wfs)),
	}
	for i, wf := range wfs {
		st.byID[wf.ID] = i
	}
	return st
}

func (st *replayState) apply(ops []corpus.Op) error {
	for _, op := range ops {
		switch op.Kind {
		case corpus.OpAdd:
			if _, dup := st.byID[op.Workflow.ID]; dup {
				return fmt.Errorf("logged add of existing workflow %q", op.Workflow.ID)
			}
			st.byID[op.Workflow.ID] = len(st.order)
			st.order = append(st.order, op.Workflow)
		case corpus.OpRemove:
			i, ok := st.byID[op.ID]
			if !ok {
				return fmt.Errorf("logged remove of unknown workflow %q", op.ID)
			}
			st.order = append(st.order[:i], st.order[i+1:]...)
			delete(st.byID, op.ID)
			for j := i; j < len(st.order); j++ {
				st.byID[st.order[j].ID] = j
			}
		case corpus.OpReplace:
			i, ok := st.byID[op.Workflow.ID]
			if !ok {
				return fmt.Errorf("logged replace of unknown workflow %q", op.Workflow.ID)
			}
			st.order[i] = op.Workflow
		}
	}
	return nil
}

func (st *replayState) workflows() []*workflow.Workflow { return st.order }

// Commit appends one committed transaction to the log and makes it durable
// before returning. It is designed to run inside the repository's
// transaction boundary (corpus.CommitHook): an error here aborts the
// in-memory commit, so the repository never holds state the log lacks.
func (s *Store) Commit(gen uint64, ops []corpus.Op) error {
	encoded, err := encodeOps(ops)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.wedged != nil {
		return s.wedged
	}
	if gen != s.lastGen+1 {
		return fmt.Errorf("storage: commit generation %d does not follow %d", gen, s.lastGen)
	}
	payload, err := json.Marshal(logRecord{Gen: gen, Ops: encoded})
	if err != nil {
		return err
	}
	hdr, err := frameHeader(payload)
	if err != nil {
		return err
	}
	// One write per frame, from the store's own buffer.
	s.buf = append(append(s.buf[:0], hdr[:]...), payload...)
	//wfsimvet:ignore lockscope s.mu is the WAL's serialization point: records land in generation order, at the offsets s.recs holds, each durable before the next writer appends
	if _, err := s.f.Write(s.buf); err != nil {
		// The append may have partially written; truncate back so the torn
		// bytes cannot shadow a later, successful record.
		s.rollbackAppendLocked()
		return fmt.Errorf("storage: append commit record: %w", err)
	}
	if !s.opts.NoSync {
		if err := s.f.Sync(); err != nil {
			s.rollbackAppendLocked()
			return fmt.Errorf("storage: sync commit record: %w", err)
		}
	}
	s.recs = append(s.recs, recordPos{gen: gen, off: s.logBytes})
	s.logBytes += int64(len(s.buf))
	s.logRecords++
	s.lastGen = gen
	return nil
}

// rollbackAppendLocked restores the log tail after a failed append. If the
// torn bytes cannot be removed, the store wedges: acknowledging a later
// append behind them would hand the caller a durability promise that
// recovery cannot keep.
func (s *Store) rollbackAppendLocked() {
	//wfsimvet:ignore lockscope rollback must run before s.mu is released or a concurrent Commit appends behind the torn bytes
	if err := s.f.Truncate(s.logBytes); err != nil {
		s.wedged = fmt.Errorf("storage: log wedged: failed append could not be rolled back (truncate: %w); compact to rewrite the log", err)
		return
	}
	if _, err := s.f.Seek(s.logBytes, io.SeekStart); err != nil {
		s.wedged = fmt.Errorf("storage: log wedged: failed append could not be rolled back (seek: %w); compact to rewrite the log", err)
	}
}

// ShouldCompact reports whether the log has outgrown the configured
// thresholds and a Compact would usefully truncate it.
func (s *Store) ShouldCompact() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.logRecords == 0 {
		return false
	}
	return (s.opts.CompactBytes > 0 && s.logBytes >= s.opts.CompactBytes) ||
		(s.opts.CompactRecords > 0 && s.logRecords >= s.opts.CompactRecords)
}

// Compact checkpoints the given repository view: it durably writes a
// snapshot at gen, rewrites the log keeping only records newer than gen,
// and deletes older snapshot files. The view must be a pinned snapshot of
// the repository this store backs (Compact never reads the repository
// itself, so it cannot deadlock with a commit in flight). On error recovery
// remains correct — at worst the old, longer log replays. A record newer
// than gen that fails its checksum on disk is an error naming its
// generation, and wedges the store (see Store.wedged).
func (s *Store) Compact(gen uint64, wfs []*workflow.Workflow) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked(gen, wfs)
}

// compactLocked copies the frames of the records newer than gen verbatim,
// by the offsets in s.recs, from a fresh handle opened by path (s.f may be
// the broken handle of a wedged store), re-checking each frame's CRC. They
// are read before the snapshot is written, so a kept frame that fails its
// checksum leaves the directory as it was. With an empty tail — the usual
// case — the new log is the 8-byte magic.
func (s *Store) compactLocked(gen uint64, wfs []*workflow.Workflow) error {
	if s.closed {
		return ErrClosed
	}
	if gen > s.lastGen {
		// Only legitimate as the baseline checkpoint of a pre-populated
		// repository adopting a fresh store: the snapshot itself asserts
		// the state at gen, and commits continue from there.
		if s.logRecords > 0 {
			return fmt.Errorf("storage: compact at generation %d beyond last committed %d", gen, s.lastGen)
		}
		s.lastGen = gen
	}
	if gen < s.snapGen {
		return fmt.Errorf("storage: compact at generation %d behind snapshot %d", gen, s.snapGen)
	}
	logPath := filepath.Join(s.dir, walName)
	log, kept, err := copyFrames(append(s.buf[:0], walMagic...), logPath, s.recs, s.logBytes, gen)
	s.buf = log
	if err != nil {
		s.wedged = fmt.Errorf("storage: log wedged: %w; compact at a generation that covers it to rewrite the log", err)
		return err
	}
	if _, err := writeSnapshot(s.dir, gen, wfs); err != nil {
		return err
	}
	// The snapshot is durable; now the log prefix it covers can go. Once the
	// rename may have happened, s.f may be a replaced file that recovery
	// never reads: a failure from here on wedges the store.
	f, size, err := replaceLog(logPath, log)
	if err != nil {
		s.wedged = fmt.Errorf("storage: log wedged: rewrite after compaction failed (%w); compact to rewrite the log", err)
		return err
	}
	//wfsimvet:ignore lockscope swapping the log handle must be atomic with the counters it serializes
	if cerr := s.f.Close(); cerr != nil {
		s.opts.Warnf("storage: close pre-compaction log handle: %v", cerr)
	}
	s.f = f
	s.recs = kept
	s.logBytes = size
	s.logRecords = int64(len(kept))
	s.snapGen = gen
	s.compactions++
	// The new log holds only checksum-valid frames and ends in a clean
	// tail, so either kind of wedge is healed.
	s.wedged = nil
	removeSnapshotsBefore(s.dir, gen, s.opts.Warnf)
	return nil
}

// Checkpoint is Compact guarded by staleness: it is a no-op when gen is
// already covered by the latest snapshot and the log is empty.
func (s *Store) Checkpoint(gen uint64, wfs []*workflow.Workflow) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if gen == s.snapGen && s.logRecords == 0 {
		return nil
	}
	return s.compactLocked(gen, wfs)
}

// Close closes the store. Further Commit/Compact calls fail with ErrClosed.
// Close does not checkpoint; callers wanting a final snapshot call
// Checkpoint first (the log alone already guarantees correct recovery).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	//wfsimvet:ignore lockscope the closed flag and the handle close must be atomic so no Commit writes to a closed file
	return s.f.Close()
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the store's current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Dir:                s.dir,
		LogBytes:           s.logBytes,
		LogRecords:         s.logRecords,
		SnapshotGeneration: s.snapGen,
		Compactions:        s.compactions,
		Recovery:           s.recovery,
	}
}

// DirHasState reports whether dir holds recoverable repository state: a
// snapshot file or at least one committed log record. A directory that was
// merely opened (empty log, no snapshots) has none.
func DirHasState(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	for _, ent := range entries {
		if _, ok := parseSnapshotName(ent.Name()); ok && !ent.IsDir() {
			return true, nil
		}
	}
	recs, _, _, err := readLog(filepath.Join(dir, walName))
	if err != nil {
		return false, err
	}
	return len(recs) > 0, nil
}
