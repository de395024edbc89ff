package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// FuzzFrame drives the record framing (length prefix + CRC-32) from both
// directions with one fuzz input:
//
//   - round trip: any payload must survive appendFrame/readFrame intact,
//     with the documented byte count;
//   - decode: the same bytes reinterpreted as a raw frame stream must
//     either decode to checksum-valid frames or fail with io.EOF (clean
//     end) or errTornFrame — never panic, never return a frame whose
//     checksum was not verified, and never read past the declared length.
func FuzzFrame(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{})
	f.Add([]byte("payload"))
	// A valid frame: decodes to itself.
	var valid bytes.Buffer
	if _, err := appendFrame(&valid, []byte("seed")); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	// A truncated frame: header promises more than the body delivers.
	f.Add(valid.Bytes()[:frameHeaderSize+1])
	// A corrupt checksum.
	corrupt := bytes.Clone(valid.Bytes())
	corrupt[4] ^= 0xff
	f.Add(corrupt)
	// A header claiming an absurd length.
	huge := make([]byte, frameHeaderSize)
	binary.BigEndian.PutUint32(huge[0:4], maxFramePayload+1)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: data as payload.
		var buf bytes.Buffer
		n, err := appendFrame(&buf, data)
		if err != nil {
			t.Fatalf("appendFrame(%d bytes): %v", len(data), err)
		}
		if n != int64(buf.Len()) || n != frameHeaderSize+int64(len(data)) {
			t.Fatalf("appendFrame reported %d bytes, wrote %d, payload %d", n, buf.Len(), len(data))
		}
		back, err := readFrame(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("readFrame of fresh frame: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip mutated payload: %d bytes in, %d out", len(data), len(back))
		}
		// A frame plus trailing garbage must still yield the frame first.
		withTail := append(bytes.Clone(buf.Bytes()), 0x00)
		if back, err = readFrame(bytes.NewReader(withTail)); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("frame with trailing byte: payload %v, err %v", back, err)
		}

		// Direction 2: data as a raw frame stream.
		r := bytes.NewReader(data)
		for {
			payload, err := readFrame(r)
			if errors.Is(err, io.EOF) {
				if r.Len() != 0 {
					t.Fatalf("io.EOF with %d bytes unread", r.Len())
				}
				break
			}
			if err != nil {
				if !errors.Is(err, errTornFrame) {
					t.Fatalf("readFrame on arbitrary bytes: %v (want io.EOF or errTornFrame)", err)
				}
				break
			}
			// A decoded frame must match the bytes it claims to come from:
			// length and checksum in the header both verified.
			pos := len(data) - r.Len() // consumed, including this frame
			start := pos - len(payload) - frameHeaderSize
			if start < 0 {
				t.Fatalf("decoded %d payload bytes but only consumed %d", len(payload), pos)
			}
			if n := binary.BigEndian.Uint32(data[start : start+4]); int(n) != len(payload) {
				t.Fatalf("header declares %d bytes, decoded %d", n, len(payload))
			}
			if want := binary.BigEndian.Uint32(data[start+4 : start+8]); crc32.ChecksumIEEE(payload) != want {
				t.Fatalf("decoded frame fails its own checksum: %08x", want)
			}
		}
	})
}

// framePayloads returns the payloads of the frames that follow a file's
// 8-byte magic (one for a snapshot, one per record for a log).
func framePayloads(t testing.TB, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(data[len(walMagic):])
	var out [][]byte
	for {
		payload, err := readFrame(r)
		if err != nil {
			return out
		}
		out = append(out, payload)
	}
}

// writeFrames writes magic followed by one checksum-valid frame per payload
// (no fsync: the fuzz loop must not wait on the disk).
func writeFrames(t testing.TB, path, magic string, payloads ...[]byte) {
	t.Helper()
	buf := bytes.NewBufferString(magic)
	for _, payload := range payloads {
		if _, err := appendFrame(buf, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// fuzzState is a recovered (or modelled) repository state: generation plus
// workflow IDs in insertion order.
type fuzzState struct {
	gen uint64
	ids []string
}

func (s fuzzState) String() string { return fmt.Sprintf("gen %d %q", s.gen, s.ids) }

// committedPrefixes models recovery independently of Open, on IDs only: from
// base, every state reached by replaying a prefix of the records, stopping at
// the first record that is unparseable, out of sequence or inapplicable.
func committedPrefixes(base fuzzState, recs [][]byte) []fuzzState {
	cur := fuzzState{gen: base.gen, ids: append([]string(nil), base.ids...)}
	out := []fuzzState{base}
	for _, raw := range recs {
		var rec struct {
			Gen uint64 `json:"gen"`
			Ops []struct {
				Op       string `json:"op"`
				ID       string `json:"id"`
				Workflow *struct {
					ID string `json:"id"`
				} `json:"workflow"`
			} `json:"ops"`
		}
		if json.Unmarshal(raw, &rec) != nil {
			return out
		}
		if rec.Gen <= cur.gen {
			continue
		}
		if rec.Gen != cur.gen+1 {
			return out
		}
		ids := append([]string(nil), cur.ids...)
		for _, op := range rec.Ops {
			id := op.ID
			if op.Op != "remove" {
				if op.Workflow == nil {
					return out
				}
				id = op.Workflow.ID
			}
			at := slices.Index(ids, id)
			switch {
			case op.Op == "add" && at < 0:
				ids = append(ids, id)
			case op.Op == "remove" && at >= 0 && id != "":
				ids = slices.Delete(ids, at, at+1)
			case op.Op == "replace" && at >= 0:
			default:
				return out
			}
		}
		cur = fuzzState{gen: rec.Gen, ids: ids}
		out = append(out, cur)
	}
	return out
}

// FuzzOpen feeds recovery checksum-valid files with arbitrary payloads: a
// snapshot frame under the name of generation nameGen and up to three log
// records. Framing is not what is fuzzed (FuzzFrame does that) — the JSON
// under it is: stale fields of older writers, generations that skip or
// disagree with the file name, ops that do not apply. Open must never panic,
// and must either refuse or recover a committed prefix — the snapshot (or,
// when it is unreadable and skipped, nothing) plus a prefix of the records —
// and recover the same state again on the next boot.
func FuzzOpen(f *testing.F) {
	wfJSON := func(id string) string {
		return `{"id":"` + id + `","modules":[{"id":"m1","label":"l_` + id + `","type":"wsdl"}]}`
	}
	add := func(gen int, id string) []byte {
		return []byte(fmt.Sprintf(`{"gen":%d,"ops":[{"op":"add","id":"%s","workflow":%s}]}`, gen, id, wfJSON(id)))
	}
	snap := func(gen int, ids ...string) []byte {
		var wfs []string
		for _, id := range ids {
			wfs = append(wfs, wfJSON(id))
		}
		return []byte(fmt.Sprintf(`{"gen":%d,"workflows":[%s]}`, gen, strings.Join(wfs, ",")))
	}
	f.Add(uint64(0), []byte(nil), add(1, "a"), add(2, "b"), []byte(`{"gen":3,"ops":[{"op":"remove","id":"a"}]}`))
	f.Add(uint64(2), snap(2, "a", "b"), add(2, "b"), add(3, "c"), []byte(nil))
	// A record whose generation skips; a snapshot whose generation disagrees
	// with its file name; an op that cannot apply; a payload that is not JSON.
	f.Add(uint64(1), snap(1, "a"), add(2, "b"), add(4, "d"), []byte(nil))
	f.Add(uint64(7), snap(2, "a"), add(1, "x"), add(2, "y"), []byte(nil))
	f.Add(uint64(1), snap(1, "a"), add(2, "a"), []byte(nil), []byte(nil))
	f.Add(uint64(1), snap(1, "a"), []byte(`{"gen":2,"ops":[{"op":"upsert","id":"a"}]}`), []byte(`not json`), []byte(nil))
	f.Add(uint64(1), []byte(`{"gen":1,"workflows":[null]}`), add(1, "a"), []byte(`{"gen":2,"ops":[{"op":"add","workflow":null}]}`), []byte(nil))
	// The stale symbol fields, verbatim from the golden directory a PR-15
	// binary wrote (snapshot "symbols", record "symbase"/"syms"), plus a
	// delta that would have "left a gap" for that binary.
	golden := filepath.Join("testdata", "golden", "v2-2shard-crash", "shard-0001")
	gsnap := framePayloads(f, filepath.Join(golden, snapshotName(2)))
	grecs := framePayloads(f, filepath.Join(golden, walName))
	if len(gsnap) != 1 || len(grecs) != 2 || !bytes.Contains(gsnap[0], []byte(`"symbols"`)) || !bytes.Contains(grecs[0], []byte(`"symbase"`)) {
		f.Fatalf("golden shard-0001 no longer carries the stale symbol fields (%d snapshot frames, %d records)", len(gsnap), len(grecs))
	}
	f.Add(uint64(2), gsnap[0], grecs[0], grecs[1], []byte(nil))
	f.Add(uint64(0), []byte(nil), []byte(`{"gen":1,"symbase":900,"syms":["x"],"ops":[{"op":"add","id":"a","workflow":`+wfJSON("a")+`}]}`), []byte(nil), []byte(nil))

	f.Fuzz(func(t *testing.T, nameGen uint64, snapPayload, rec1, rec2, rec3 []byte) {
		dir := t.TempDir()
		bases := []fuzzState{{}}
		if len(snapPayload) > 0 {
			writeFrames(t, filepath.Join(dir, snapshotName(nameGen)), snapMagic, snapPayload)
			var sp struct {
				Gen       uint64 `json:"gen"`
				Workflows []*struct {
					ID string `json:"id"`
				} `json:"workflows"`
			}
			// A snapshot that does not parse, names another generation or
			// lists a null workflow is skipped, not a base.
			if json.Unmarshal(snapPayload, &sp) == nil && sp.Gen == nameGen && !slices.Contains(sp.Workflows, nil) {
				base := fuzzState{gen: sp.Gen}
				for _, wf := range sp.Workflows {
					base.ids = append(base.ids, wf.ID)
				}
				bases = append(bases, base)
			}
		}
		var recs [][]byte
		for _, rec := range [][]byte{rec1, rec2, rec3} {
			if len(rec) > 0 {
				recs = append(recs, rec)
			}
		}
		writeFrames(t, filepath.Join(dir, walName), walMagic, recs...)

		recovered := func() (fuzzState, error) {
			s, wfs, gen, err := Open(dir, Options{NoSync: true})
			if err != nil {
				return fuzzState{}, err
			}
			defer s.Close()
			st := fuzzState{gen: gen}
			for _, wf := range wfs {
				st.ids = append(st.ids, wf.ID)
			}
			return st, nil
		}
		got, err := recovered()
		if err != nil {
			return // refused: fine
		}
		ok := false
		for _, base := range bases {
			for _, want := range committedPrefixes(base, recs) {
				if want.gen == got.gen && slices.Equal(want.ids, got.ids) {
					ok = true
				}
			}
		}
		if !ok {
			t.Fatalf("Open recovered %v, which is no committed prefix of snapshot %q + records %q", got, snapPayload, recs)
		}
		again, err := recovered()
		if err != nil || again.gen != got.gen || !slices.Equal(again.ids, got.ids) {
			t.Fatalf("second boot recovered %v (err %v), first recovered %v", again, err, got)
		}
	})
}
