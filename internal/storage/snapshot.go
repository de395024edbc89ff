package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/workflow"
)

// snapMagic identifies the snapshot file format and is what the writer
// emits. snapMagicAlt marks the same format as written by the earliest
// binaries; the reader accepts both. Snapshots written between the two
// embedded a "symbols" list (the symbol table's strings); symbol IDs are
// process-local now, so the decoder simply ignores that field.
const (
	snapMagic    = "wfsimsn2"
	snapMagicAlt = "wfsimsn1"
)

// snapshotPayload is a serialized repository view: the workflows in
// insertion order and the generation the view captures. Every log record
// with an equal or smaller generation stamp is covered by it.
type snapshotPayload struct {
	Gen       uint64               `json:"gen"`
	Workflows []*workflow.Workflow `json:"workflows"`
}

// snapshotName returns the file name for a snapshot at gen. The
// fixed-width hex generation makes lexical order equal generation order.
func snapshotName(gen uint64) string {
	return fmt.Sprintf("snap-%016x.snap", gen)
}

// parseSnapshotName extracts the generation from a snapshot file name.
func parseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")
	if len(hex) != 16 {
		return 0, false
	}
	gen, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// writeSnapshot durably writes a snapshot file for gen and returns its path.
func writeSnapshot(dir string, gen uint64, wfs []*workflow.Workflow) (string, error) {
	payload, err := json.Marshal(snapshotPayload{Gen: gen, Workflows: wfs})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, snapshotName(gen))
	if err := writeFileAtomic(path, snapMagic, payload); err != nil {
		return "", err
	}
	return path, nil
}

// loadSnapshot reads and validates one snapshot file.
func loadSnapshot(path string) (snap snapshotPayload, err error) {
	payload, err := readFileFrame(path, snapMagic, snapMagicAlt)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(payload, &snap); err != nil {
		return snap, fmt.Errorf("storage: %s: decode: %w", filepath.Base(path), err)
	}
	if wantGen, ok := parseSnapshotName(filepath.Base(path)); ok && wantGen != snap.Gen {
		return snap, fmt.Errorf("storage: %s: generation %d does not match file name", filepath.Base(path), snap.Gen)
	}
	if slices.Contains(snap.Workflows, nil) {
		return snap, fmt.Errorf("storage: %s: null workflow", filepath.Base(path))
	}
	return snap, nil
}

// listSnapshots returns the generations of all snapshot-named files in dir,
// newest first. Validity is checked at load time, not here.
func listSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, ent := range entries {
		if gen, ok := parseSnapshotName(ent.Name()); ok && !ent.IsDir() {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	return gens, nil
}

// loadLatestSnapshot loads the newest valid snapshot in dir, skipping (and
// warning about) invalid ones — a crash can leave no snapshot at all, but
// never a half-renamed one, so invalid files indicate external damage.
func loadLatestSnapshot(dir string, warnf func(format string, args ...any)) (snapshotPayload, bool, error) {
	gens, err := listSnapshots(dir)
	if err != nil {
		return snapshotPayload{}, false, err
	}
	for _, gen := range gens {
		snap, err := loadSnapshot(filepath.Join(dir, snapshotName(gen)))
		if err != nil {
			warnf("storage: skipping unreadable snapshot %s: %v", snapshotName(gen), err)
			continue
		}
		return snap, true, nil
	}
	return snapshotPayload{}, false, nil
}

// removeSnapshotsBefore deletes snapshot files older than keepGen, after a
// newer snapshot has become durable. Pruning is best-effort — a survivor
// snapshot costs disk, never correctness (recovery always prefers the
// newest valid one) — but failures are surfaced through warnf so an
// operator sees a filling disk before it matters.
func removeSnapshotsBefore(dir string, keepGen uint64, warnf func(format string, args ...any)) {
	gens, err := listSnapshots(dir)
	if err != nil {
		warnf("storage: listing snapshots for pruning: %v", err)
		return
	}
	for _, gen := range gens {
		if gen < keepGen {
			if err := os.Remove(filepath.Join(dir, snapshotName(gen))); err != nil {
				warnf("storage: pruning snapshot %s: %v", snapshotName(gen), err)
			}
		}
	}
}
