// Package storage is wfsim's durability layer: an append-only mutation log
// (write-ahead log) where every committed repository transaction becomes a
// length-prefixed, checksummed, generation-stamped record fsynced before the
// in-memory commit; periodic snapshot compaction that serializes a pinned
// repository view to disk and truncates the log prefix it covers; and a
// boot-time recovery path that loads the latest valid snapshot, replays the
// log tail to the last fully-committed generation, and tolerates a torn
// final record (truncate, warn, continue).
//
// The design follows the classic WAL + checkpoint discipline: because every
// corpus.ApplyBatch is already an all-or-nothing transaction stamped with
// its resulting generation, a record per batch is exactly a redo log, and
// the repository generation doubles as the log sequence number. A process
// killed at any instant recovers to the last generation whose record was
// fully durable — never a torn batch.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Frame layout, shared by WAL records, snapshot files and the score-cache
// file: a 4-byte big-endian payload length, a 4-byte CRC-32 (IEEE) of the
// payload, then the payload bytes. The checksum lets recovery distinguish a
// fully-durable frame from a torn or bit-rotted tail.
const frameHeaderSize = 8

// maxFramePayload guards decoding against absurd lengths from corrupt
// headers: a frame claiming more than this is treated as torn, not
// allocated.
const maxFramePayload = 256 << 20

// errTornFrame marks a frame that is incomplete or fails its checksum —
// the expected state of a log tail after a crash mid-write.
var errTornFrame = errors.New("storage: torn or corrupt frame")

// frameHeader returns the header of the frame holding payload.
func frameHeader(payload []byte) (hdr [frameHeaderSize]byte, err error) {
	if len(payload) > maxFramePayload {
		return hdr, fmt.Errorf("storage: frame payload %d bytes exceeds limit %d", len(payload), maxFramePayload)
	}
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return hdr, nil
}

// appendFrame writes one frame to w and returns the bytes written.
func appendFrame(w io.Writer, payload []byte) (int64, error) {
	hdr, err := frameHeader(payload)
	if err != nil {
		return 0, err
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return frameHeaderSize + int64(len(payload)), nil
}

// validFrame reports whether b is exactly one whole, checksum-valid frame.
func validFrame(b []byte) bool {
	return len(b) >= frameHeaderSize &&
		int64(binary.BigEndian.Uint32(b[0:4])) == int64(len(b)-frameHeaderSize) &&
		crc32.ChecksumIEEE(b[frameHeaderSize:]) == binary.BigEndian.Uint32(b[4:8])
}

// readFrame reads the next frame from r. It returns io.EOF at a clean end
// of input and errTornFrame when the remaining bytes are not one whole,
// checksum-valid frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTornFrame // partial header
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	sum := binary.BigEndian.Uint32(hdr[4:8])
	if n > maxFramePayload {
		return nil, errTornFrame
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errTornFrame // partial payload
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, errTornFrame
	}
	return payload, nil
}

// checkMagic reads a file's 8-byte magic header and verifies it is one of
// the accepted magics. Any other leading bytes are a hard error — unknown
// formats are refused, never guessed at.
func checkMagic(r io.Reader, magics ...string) error {
	buf := make([]byte, len(magics[0]))
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("storage: short magic header: %w", err)
	}
	for _, magic := range magics {
		if string(buf) == magic {
			return nil
		}
	}
	return fmt.Errorf("storage: bad magic %q (want one of %q)", buf, magics)
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// writeFileAtomic writes a single-frame file (magic + one frame) to path
// with ReplaceFile.
func writeFileAtomic(path, magic string, payload []byte) error {
	hdr, err := frameHeader(payload)
	if err != nil {
		return err
	}
	return ReplaceFile(path, []byte(magic), hdr[:], payload)
}

// ReplaceFile writes the chunks, in order, to path via a temp file, fsync
// and rename, then fsyncs the directory — the file is either wholly present
// under its final name or absent. The temp file is path + ".tmp-*" in the
// same directory, and it is removed on failure.
func ReplaceFile(path string, chunks ...[]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	for _, chunk := range chunks {
		if _, err := tmp.Write(chunk); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// readFileFrame loads a single-frame file written by writeFileAtomic under
// any of the accepted magics.
func readFileFrame(path string, magics ...string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := checkMagic(f, magics...); err != nil {
		return nil, err
	}
	payload, err := readFrame(f)
	if err != nil {
		return nil, fmt.Errorf("storage: %s: %w", filepath.Base(path), err)
	}
	return payload, nil
}
