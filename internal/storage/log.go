package storage

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/corpus"
	"repro/internal/workflow"
)

// walName is the mutation log's file name within a data directory.
const walName = "wal.log"

// walMagic identifies the log format and is what the writer emits.
// walMagicAlt marks the same format as written by the earliest binaries;
// the reader accepts both. Records written between the two carried
// "symbase"/"syms" fields (a persisted symbol-table delta); symbol IDs are
// process-local now, so the decoder simply ignores those fields.
const (
	walMagic    = "wfsimwl2"
	walMagicAlt = "wfsimwl1"
)

// opRecord is one mutation inside a logged transaction. Op is "add",
// "remove" or "replace" — the same vocabulary the HTTP batch endpoint
// speaks, so a log is also a readable audit trail of the ingest stream.
type opRecord struct {
	Op       string             `json:"op"`
	ID       string             `json:"id,omitempty"`
	Workflow *workflow.Workflow `json:"workflow,omitempty"`
}

// logRecord is one committed repository transaction: the batch's operations
// and the generation the repository reached by committing them. Generations
// increase by exactly one per commit, so the stamp doubles as the log
// sequence number.
type logRecord struct {
	Gen uint64     `json:"gen"`
	Ops []opRecord `json:"ops"`
	off int64      // where readLog found the record's frame
}

// recordPos locates one record of the current log: the generation it
// committed and the file offset of its frame.
type recordPos struct {
	gen uint64
	off int64
}

// encodeOps converts a committed corpus batch to its log representation.
func encodeOps(ops []corpus.Op) ([]opRecord, error) {
	out := make([]opRecord, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case corpus.OpAdd:
			out[i] = opRecord{Op: "add", ID: op.ID, Workflow: op.Workflow}
		case corpus.OpRemove:
			out[i] = opRecord{Op: "remove", ID: op.ID}
		case corpus.OpReplace:
			out[i] = opRecord{Op: "replace", ID: op.ID, Workflow: op.Workflow}
		default:
			return nil, fmt.Errorf("storage: cannot log op kind %d", op.Kind)
		}
	}
	return out, nil
}

// decodeOps converts a log record's operations back to a corpus batch.
func decodeOps(recs []opRecord) ([]corpus.Op, error) {
	out := make([]corpus.Op, len(recs))
	for i, rec := range recs {
		switch rec.Op {
		case "add":
			if rec.Workflow == nil {
				return nil, fmt.Errorf("storage: logged add without workflow")
			}
			out[i] = corpus.Op{Kind: corpus.OpAdd, ID: rec.Workflow.ID, Workflow: rec.Workflow}
		case "remove":
			if rec.ID == "" {
				return nil, fmt.Errorf("storage: logged remove without id")
			}
			out[i] = corpus.Op{Kind: corpus.OpRemove, ID: rec.ID}
		case "replace":
			if rec.Workflow == nil {
				return nil, fmt.Errorf("storage: logged replace without workflow")
			}
			out[i] = corpus.Op{Kind: corpus.OpReplace, ID: rec.Workflow.ID, Workflow: rec.Workflow}
		default:
			return nil, fmt.Errorf("storage: unknown logged op %q", rec.Op)
		}
	}
	return out, nil
}

// readLog reads every whole, checksum-valid record from the log at path.
// validSize is the byte offset up to which the file is intact; torn reports
// whether trailing bytes past validSize had to be disregarded (the expected
// state after a crash mid-append). A missing file is an empty log.
func readLog(path string) (recs []logRecord, validSize int64, torn bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	magicBuf := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magicBuf); err != nil {
		// A file too short to hold the magic is a torn creation.
		//wfsimvet:ignore errpath a short read just means the file is smaller than the magic, i.e. a torn creation
		return nil, 0, true, nil
	}
	if m := string(magicBuf); m != walMagic && m != walMagicAlt {
		// Anything else under the magic is an unknown format and a hard
		// error — refused, never guessed at.
		return nil, 0, false, fmt.Errorf("storage: %s: bad magic %q (want %q or %q)", walName, magicBuf, walMagic, walMagicAlt)
	}
	validSize = int64(len(walMagic))
	for {
		payload, err := readFrame(br)
		if err == io.EOF {
			return recs, validSize, false, nil
		}
		if err != nil {
			return recs, validSize, true, nil
		}
		var rec logRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			// The frame checksum passed but the payload does not parse:
			// treat like a torn tail rather than refusing to start.
			return recs, validSize, true, nil
		}
		rec.off = validSize
		recs = append(recs, rec)
		validSize += frameHeaderSize + int64(len(payload))
	}
}

// openLogForAppend opens (creating if needed) the log for appending,
// truncating it to validSize first so a torn tail can never be extended
// into a record that later replays garbage.
func openLogForAppend(path string, validSize int64) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	size := st.Size()
	if size > validSize {
		if err := f.Truncate(validSize); err != nil {
			f.Close()
			return nil, 0, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, 0, err
		}
		size = validSize
	}
	if size == 0 {
		if _, err := f.Write([]byte(walMagic)); err != nil {
			f.Close()
			return nil, 0, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, 0, err
		}
		size = int64(len(walMagic))
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, size, nil
}

// replaceLog atomically replaces the log at path with data (the magic and
// whole frames) and opens the new file for append.
func replaceLog(path string, data []byte) (*os.File, int64, error) {
	if err := ReplaceFile(path, data); err != nil {
		return nil, 0, err
	}
	return openLogForAppend(path, int64(len(data)))
}

// copyFrames appends to dst, byte for byte, the frames of the records in
// recs newer than gen, read by offset from the log at path (size is where
// its last record ends), and returns dst with the kept records' positions
// in it. Each frame's checksum is re-checked and nothing is decoded. A frame
// that cannot be read whole and valid is an error naming its generation.
func copyFrames(dst []byte, path string, recs []recordPos, size int64, gen uint64) ([]byte, []recordPos, error) {
	first := slices.IndexFunc(recs, func(rec recordPos) bool { return rec.gen > gen })
	if first < 0 {
		return dst, nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return dst, nil, err
	}
	defer f.Close()
	var kept []recordPos
	for i, rec := range recs[first:] {
		if rec.gen <= gen {
			continue
		}
		end := size
		if next := first + i + 1; next < len(recs) {
			end = recs[next].off
		}
		at := len(dst)
		dst = slices.Grow(dst, int(end-rec.off))[:at+int(end-rec.off)]
		if _, err := f.ReadAt(dst[at:], rec.off); err != nil || !validFrame(dst[at:]) {
			return dst[:at], nil, fmt.Errorf("storage: %s: record generation %d at offset %d is unreadable or fails its checksum", walName, rec.gen, rec.off)
		}
		kept = append(kept, recordPos{gen: rec.gen, off: int64(at)})
	}
	return dst, kept, nil
}
