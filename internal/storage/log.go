package storage

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

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

// rewriteLog atomically replaces the log at path with one containing only
// keep, returning the new file opened for append and its size. Used by
// compaction to drop the prefix a durable snapshot now covers.
func rewriteLog(path string, keep []logRecord) (*os.File, int64, int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, walName+".tmp-*")
	if err != nil {
		return nil, 0, 0, err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	size := int64(len(walMagic))
	if _, err := tmp.Write([]byte(walMagic)); err != nil {
		tmp.Close()
		return nil, 0, 0, err
	}
	for _, rec := range keep {
		payload, err := json.Marshal(rec)
		if err != nil {
			tmp.Close()
			return nil, 0, 0, err
		}
		n, err := appendFrame(tmp, payload)
		if err != nil {
			tmp.Close()
			return nil, 0, 0, err
		}
		size += n
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return nil, 0, 0, err
	}
	if err := tmp.Close(); err != nil {
		return nil, 0, 0, err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return nil, 0, 0, err
	}
	if err := syncDir(dir); err != nil {
		return nil, 0, 0, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, 0, err
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, 0, err
	}
	return f, size, int64(len(keep)), nil
}
