package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/workflow"
)

// storeModel is what a Store in the model test must hold: the repository at
// every generation up to the last committed one, the generation of the
// latest snapshot, and the frame Commit wrote for every generation.
type storeModel struct {
	states  [][]*workflow.Workflow // states[g]: the repository at generation g
	snapGen uint64
	frames  map[uint64][]byte
	nextID  int
}

func (m *storeModel) last() uint64 { return uint64(len(m.states) - 1) }

// batch builds a valid batch of one to three ops against the current state
// and returns it with the state it leads to: adds append, removes splice,
// replaces keep their position.
func (m *storeModel) batch(next func() int) ([]corpus.Op, []*workflow.Workflow) {
	state := append([]*workflow.Workflow(nil), m.states[m.last()]...)
	var ops []corpus.Op
	for n := 1 + next()%3; len(ops) < n; {
		switch kind := next() % 3; {
		case kind == 0 || len(state) == 0:
			w := wf(fmt.Sprintf("w%d", m.nextID), fmt.Sprintf("label-%d", next()))
			m.nextID++
			ops = append(ops, addOp(w))
			state = append(state, w)
		case kind == 1:
			i := next() % len(state)
			ops = append(ops, corpus.Op{Kind: corpus.OpRemove, ID: state[i].ID})
			state = slices.Delete(state, i, i+1)
		default:
			i := next() % len(state)
			w := wf(state[i].ID, fmt.Sprintf("replaced-%d", next()))
			ops = append(ops, corpus.Op{Kind: corpus.OpReplace, ID: w.ID, Workflow: w})
			state[i] = w
		}
	}
	return ops, state
}

// check asserts, on an open store, that its offset table is where readLog
// finds the records on disk, that it counts exactly the records newer than
// the snapshot, and that every frame in the log is byte for byte the one
// Commit wrote for its generation.
func (m *storeModel) check(t *testing.T, s *Store) {
	t.Helper()
	path := filepath.Join(s.dir, walName)
	recs, validSize, torn, err := readLog(path)
	if err != nil || torn || validSize != s.logBytes {
		t.Fatalf("log on disk: %d valid bytes, torn %v, err %v; store says %d bytes", validSize, torn, err, s.logBytes)
	}
	if len(recs) != len(s.recs) {
		t.Fatalf("offset table has %d records, the log %d", len(s.recs), len(recs))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if got := s.recs[i]; got != (recordPos{gen: rec.Gen, off: rec.off}) || rec.Gen != m.snapGen+1+uint64(i) {
			t.Fatalf("record %d: table %+v, on disk generation %d at %d (snapshot %d)", i, got, rec.Gen, rec.off, m.snapGen)
		}
		end := s.logBytes
		if i+1 < len(recs) {
			end = recs[i+1].off
		}
		if !bytes.Equal(data[rec.off:end], m.frames[rec.Gen]) {
			t.Fatalf("generation %d: the log holds another frame than Commit wrote", rec.Gen)
		}
	}
	if st := s.Stats(); st.LogRecords != int64(m.last()-m.snapGen) || st.SnapshotGeneration != m.snapGen {
		t.Fatalf("stats %+v, want %d log records and snapshot %d", st, m.last()-m.snapGen, m.snapGen)
	}
}

// reopen opens the directory and asserts it recovers the model's state.
func (m *storeModel) reopen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, wfs, gen := mustOpen(t, dir, opts)
	if want := contents(m.states[m.last()]); gen != m.last() || !slices.Equal(contents(wfs), want) {
		s.Close()
		t.Fatalf("recovered %v at generation %d, want %v at %d", contents(wfs), gen, want, m.last())
	}
	return s
}

// contents lists each workflow as its ID and its one module's label.
func contents(wfs []*workflow.Workflow) []string {
	out := make([]string, len(wfs))
	for i, w := range wfs {
		out[i] = w.ID + "=" + w.Modules[0].Label
	}
	return out
}

// runStoreModel interprets script as a sequence of store operations —
// Commit, Compact at any generation the snapshot has not passed, Close and
// Open, and a crash that drops or tears the last record before Open — and
// checks the store against storeModel after every one.
func runStoreModel(t *testing.T, script []byte) {
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, walName)
	opts := Options{NoSync: true, CompactBytes: -1, CompactRecords: -1}
	m := &storeModel{states: [][]*workflow.Workflow{nil}, frames: map[uint64][]byte{}}
	s := m.reopen(t, dir, opts)
	defer func() { s.Close() }()
	for step := 0; len(script) > 0 && step < 64; step++ {
		switch next() % 8 {
		case 0, 1, 2, 3:
			ops, state := m.batch(next)
			before := s.Stats().LogBytes
			if err := s.Commit(m.last()+1, ops); err != nil {
				t.Fatalf("step %d: commit %d: %v", step, m.last()+1, err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			m.states = append(m.states, state)
			m.frames[m.last()] = data[before:]
		case 4, 5:
			g := m.snapGen + uint64(next())%(m.last()-m.snapGen+1)
			if err := s.Compact(g, m.states[g]); err != nil {
				t.Fatalf("step %d: compact at %d: %v", step, g, err)
			}
			m.snapGen = g
		case 6:
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = m.reopen(t, dir, opts)
		case 7:
			// A crash loses the last record when its write had not reached
			// the disk: cut it off whole, or keep a strict prefix of its
			// frame. With no record newer than the snapshot, leave a torn
			// fragment of a frame that never was.
			size := s.logBytes
			cut, tail := size, []byte{0, 0, 1}
			if n := len(s.recs); n > 0 {
				off := s.recs[n-1].off
				cut, tail = off+int64(next())%(size-off), nil
				m.states = m.states[:m.last()]
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(data[:cut], tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			s = m.reopen(t, dir, opts)
		}
		m.check(t, s)
	}
}

// TestStoreModel runs the model test over seeded random scripts, so plain
// `go test` covers it; FuzzStoreModel explores further.
func TestStoreModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			script := make([]byte, 400)
			rand.New(rand.NewSource(seed)).Read(script)
			runStoreModel(t, script)
		})
	}
}

// FuzzStoreModel drives the store with arbitrary operation scripts against
// storeModel (see runStoreModel).
func FuzzStoreModel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 4, 1, 6, 7, 0})
	f.Add([]byte{0, 2, 1, 0, 3, 0, 0, 1, 4, 0, 7, 1, 6, 0, 5, 9})
	f.Add([]byte{1, 1, 2, 0, 2, 1, 1, 7, 5, 0, 3, 4, 7, 7, 0, 0, 4, 3, 6})
	f.Fuzz(func(t *testing.T, script []byte) {
		runStoreModel(t, script)
	})
}
