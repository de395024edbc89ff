package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/storage"
)

// MarkerFormat identifies the on-disk layout of a data directory split
// across two or more shards. It covers both the directory structure
// (shards.json + shard-NNNN subdirectories) and the partitioning function
// (FNV-1a ring, 64 virtual nodes per shard): a change to either needs a new
// format string. A one-shard deployment has nothing to partition and uses the
// flat layout: its single store lives at the root, with no marker.
const MarkerFormat = "wfsim-shards-v1"

// markerFile is the layout marker at the root of a sharded data directory.
const markerFile = "shards.json"

type marker struct {
	Format string `json:"format"`
	Shards int    `json:"shards"`
}

// ShardDir returns the storage subdirectory for shard i under root.
func ShardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%04d", i))
}

// StoreDir returns where shard i of an n-shard deployment keeps its store:
// root itself in the flat one-shard layout, ShardDir otherwise.
func StoreDir(root string, n, i int) string {
	if n == 1 {
		return root
	}
	return ShardDir(root, i)
}

// ReadMarker reports the shard count recorded in root's layout marker.
// ok is false when no marker exists (the directory is flat or empty).
func ReadMarker(root string) (n int, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(root, markerFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("shard: read layout marker: %w", err)
	}
	var m marker
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, false, fmt.Errorf("shard: parse %s: %w", filepath.Join(root, markerFile), err)
	}
	if m.Format != MarkerFormat {
		return 0, false, fmt.Errorf("shard: %s has unsupported layout format %q (want %q)", root, m.Format, MarkerFormat)
	}
	if m.Shards < 1 {
		return 0, false, fmt.Errorf("shard: %s records invalid shard count %d", root, m.Shards)
	}
	return m.Shards, true, nil
}

// WriteMarker records the shard count in root's layout marker. The marker is
// written once when a sharded data directory is initialised and never
// rewritten: reopening with a different count is refused, not resharded. It
// is written durably, like a snapshot (storage.ReplaceFile): a crash leaves
// either the whole marker or none, never an empty one that ReadMarker would
// refuse on every later boot.
func WriteMarker(root string, n int) error {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("shard: create data directory: %w", err)
	}
	data, err := json.Marshal(marker{Format: MarkerFormat, Shards: n})
	if err != nil {
		return err
	}
	if err := storage.ReplaceFile(filepath.Join(root, markerFile), data, []byte{'\n'}); err != nil {
		return fmt.Errorf("shard: write layout marker: %w", err)
	}
	return nil
}

// CheckLayout validates root for opening with n shards and, for n >= 2,
// initialises the marker when the directory is fresh. It refuses, with a
// clear error, to reinterpret a directory written under a different shard
// count in either direction — resharding on disk is never silent — and a
// refusal leaves the directory untouched.
func CheckLayout(root string, n int) error {
	recorded, ok, err := ReadMarker(root)
	if err != nil {
		return err
	}
	if ok {
		if recorded != n || n == 1 {
			return fmt.Errorf("shard: data directory %s holds a sharded corpus written with %d shards; refusing to open with %d (resharding on disk is not supported — start with -shards %d or point at a fresh directory)", root, recorded, n, recorded)
		}
		return nil
	}
	if n == 1 {
		return nil // the flat layout needs no marker
	}
	flat, err := storage.DirHasState(root)
	if err != nil {
		return err
	}
	if flat {
		return fmt.Errorf("shard: data directory %s holds an unsharded corpus; refusing to open with %d shards (run without -shards, or point at a fresh directory)", root, n)
	}
	return WriteMarker(root, n)
}

// DirHasState reports whether root holds any durable corpus state, in
// either layout: a flat store, or a layout marker. The marker alone counts —
// it pins the directory to a shard count even before the first commit, so
// preloads must not silently adopt it.
func DirHasState(root string) (bool, error) {
	if _, ok, err := ReadMarker(root); err != nil || ok {
		return ok, err
	}
	return storage.DirHasState(root)
}
