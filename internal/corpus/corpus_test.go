package corpus

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/symtab"
	"repro/internal/workflow"
)

func sample(id string) *workflow.Workflow {
	w := workflow.New(id)
	w.Annotations = workflow.Annotations{Title: "t " + id, Tags: []string{"x"}}
	a := w.AddModule(&workflow.Module{ID: "m0", Label: "a", Type: workflow.TypeWSDL, ServiceURI: "http://u"})
	b := w.AddModule(&workflow.Module{ID: "m1", Label: "b", Type: workflow.TypeBeanshell, Script: "s"})
	_ = w.AddEdge(a, b)
	return w
}

func TestRepositoryAddGet(t *testing.T) {
	r, err := NewRepository(sample("1"), sample("2"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Snapshot().Size() != 2 {
		t.Errorf("Size = %d", r.Snapshot().Size())
	}
	if r.Snapshot().Get("1") == nil || r.Snapshot().Get("404") != nil {
		t.Error("Get misbehaves")
	}
	if got := r.Snapshot().IDs(); !reflect.DeepEqual(got, []string{"1", "2"}) {
		t.Errorf("IDs = %v", got)
	}
	if err := r.Add(sample("1")); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := r.Add(workflow.New("")); err == nil {
		t.Error("empty ID accepted")
	}
	if err := r.Add(nil); err == nil {
		t.Error("nil workflow accepted")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	r, err := NewRepository(sample("1"), sample("2"))
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if snap.Generation() != 0 {
		t.Errorf("fresh repository generation = %d", snap.Generation())
	}
	if r.Snapshot() != snap {
		t.Error("snapshot not cached between writes")
	}
	if err := r.Add(sample("3")); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("1"); err != nil {
		t.Fatal(err)
	}
	// The pinned snapshot is unaffected by both writes.
	if snap.Size() != 2 || snap.Get("1") == nil || snap.Get("3") != nil {
		t.Errorf("pinned snapshot torn by writes: size %d", snap.Size())
	}
	now := r.Snapshot()
	if now.Generation() != 2 {
		t.Errorf("generation after two writes = %d", now.Generation())
	}
	if now.Size() != 2 || now.Get("1") != nil || now.Get("3") == nil {
		t.Error("current snapshot missing the writes")
	}
}

func TestRemoveReplace(t *testing.T) {
	r, _ := NewRepository(sample("1"), sample("2"))
	if err := r.Remove("404"); !errors.Is(err, ErrNotFound) {
		t.Errorf("removing unknown ID: err = %v, want ErrNotFound", err)
	}
	if err := r.Replace(sample("404")); !errors.Is(err, ErrNotFound) {
		t.Errorf("replacing unknown ID: err = %v, want ErrNotFound", err)
	}
	if err := r.Add(sample("1")); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("adding a live ID: err = %v, want ErrDuplicateID", err)
	}
	if err := r.Add(nil); err == nil {
		t.Error("nil Add accepted")
	}
	if err := r.Replace(nil); err == nil {
		t.Error("nil Replace accepted")
	}
	if r.Generation() != 0 {
		t.Errorf("rejected mutations bumped the generation to %d", r.Generation())
	}
	repl := sample("2")
	repl.Annotations.Title = "replaced"
	if err := r.Replace(repl); err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot().Get("2").Annotations.Title; got != "replaced" {
		t.Errorf("Replace not visible: title %q", got)
	}
	if r.Snapshot().Size() != 2 {
		t.Errorf("Replace changed size to %d", r.Snapshot().Size())
	}
	if err := r.Remove("1"); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot().Size() != 1 || r.Snapshot().Get("1") != nil {
		t.Error("Remove not visible")
	}
}

func TestApplyBatchTransactional(t *testing.T) {
	r, _ := NewRepository(sample("1"), sample("2"))
	before := r.Snapshot()

	// A batch with a bad trailing op must leave the repository untouched.
	_, err := r.ApplyBatch([]Op{
		{Kind: OpAdd, Workflow: sample("3")},
		{Kind: OpRemove, ID: "404"},
	})
	if err == nil {
		t.Fatal("bad batch accepted")
	}
	if r.Snapshot() != before {
		t.Error("failed batch mutated the repository")
	}

	// Remove-then-re-add of the same ID inside one batch is valid.
	gen, err := r.ApplyBatch([]Op{
		{Kind: OpRemove, ID: "1"},
		{Kind: OpAdd, Workflow: sample("1")},
		{Kind: OpAdd, Workflow: sample("3")},
		{Kind: OpReplace, Workflow: sample("2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if gen != before.Generation()+1 {
		t.Errorf("batch bumped generation by %d, want 1", gen-before.Generation())
	}
	if r.Snapshot().Size() != 3 {
		t.Errorf("size after batch = %d", r.Snapshot().Size())
	}

	// Duplicate add within one batch is caught by staged validation.
	if _, err := r.ApplyBatch([]Op{
		{Kind: OpAdd, Workflow: sample("9")},
		{Kind: OpAdd, Workflow: sample("9")},
	}); err == nil {
		t.Error("duplicate add within batch accepted")
	}
	if _, err := r.ApplyBatch([]Op{{}}); err == nil {
		t.Error("zero op accepted")
	}

	// Staged-overlay cases: each op is judged against the live state plus
	// the batch's own earlier ops, through ValidateBatch (prepare only) and
	// ApplyBatch alike; a rejected batch leaves the generation untouched.
	// Live state here: "1", "2", "3".
	add := func(id string) Op { return Op{Kind: OpAdd, ID: id, Workflow: sample(id)} }
	rm := func(id string) Op { return Op{Kind: OpRemove, ID: id} }
	repl := func(id string) Op { return Op{Kind: OpReplace, ID: id, Workflow: sample(id)} }
	for _, c := range []struct {
		name string
		ops  []Op
		want error // nil = the batch commits
	}{
		{"add, remove, add again of a new ID", []Op{add("7"), rm("7"), add("7")}, nil},
		{"remove, add, remove of a live ID", []Op{rm("1"), add("1"), rm("1")}, nil},
		{"replace of an ID added earlier in the batch", []Op{add("8"), repl("8")}, nil},
		{"remove then replace", []Op{rm("2"), repl("2")}, ErrNotFound},
		{"remove twice", []Op{rm("2"), rm("2")}, ErrNotFound},
		{"duplicate add inside the batch", []Op{add("9"), add("9")}, ErrDuplicateID},
		{"add of a live ID", []Op{add("3")}, ErrDuplicateID},
		{"re-add after remove then add", []Op{rm("3"), add("3"), add("3")}, ErrDuplicateID},
	} {
		genBefore, sizeBefore := r.Generation(), r.Snapshot().Size()
		verr := r.ValidateBatch(c.ops)
		if r.Generation() != genBefore {
			t.Errorf("%s: ValidateBatch moved the generation", c.name)
		}
		gen, aerr := r.ApplyBatch(c.ops)
		if c.want == nil {
			if verr != nil || aerr != nil {
				t.Errorf("%s: rejected (validate %v, apply %v)", c.name, verr, aerr)
			} else if gen != genBefore+1 {
				t.Errorf("%s: generation %d -> %d, want +1", c.name, genBefore, gen)
			}
			continue
		}
		if !errors.Is(verr, c.want) || !errors.Is(aerr, c.want) {
			t.Errorf("%s: validate %v, apply %v, want %v", c.name, verr, aerr, c.want)
		}
		if r.Generation() != genBefore || r.Snapshot().Size() != sizeBefore {
			t.Errorf("%s: failed batch moved generation %d -> %d, size %d -> %d",
				c.name, genBefore, r.Generation(), sizeBefore, r.Snapshot().Size())
		}
	}
}

func TestAddErrorsIncludeSize(t *testing.T) {
	r, _ := NewRepository(sample("1"), sample("2"))
	err := r.Add(sample("1"))
	if err == nil || !strings.Contains(err.Error(), "repository size 2") {
		t.Errorf("duplicate error lacks repository size: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r, _ := NewRepository(sample("1"), sample("2"))
	var buf bytes.Buffer
	if err := r.Snapshot().Save(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Snapshot().Size() != 2 {
		t.Fatalf("loaded size = %d", r2.Snapshot().Size())
	}
	w1, w2 := r.Snapshot().Get("1"), r2.Snapshot().Get("1")
	if w1.Annotations.Title != w2.Annotations.Title {
		t.Error("annotations lost in round trip")
	}
	if w1.Size() != w2.Size() || w1.EdgeCount() != w2.EdgeCount() {
		t.Error("structure lost in round trip")
	}
	if w2.Modules[0].ServiceURI != "http://u" {
		t.Error("module attributes lost")
	}
	if err := r2.Snapshot().Validate(); err != nil {
		t.Error(err)
	}
}

func TestLoadRejectsWrongFormat(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"format":"other","workflows":[]}`)); err == nil {
		t.Error("wrong format accepted")
	}
	if _, err := Load(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.json")
	r, _ := NewRepository(sample("1"))
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	r2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Snapshot().Size() != 1 {
		t.Errorf("loaded size = %d", r2.Snapshot().Size())
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCommitHookSeesEveryMutation(t *testing.T) {
	r, err := NewRepository()
	if err != nil {
		t.Fatal(err)
	}
	type call struct {
		gen uint64
		ops []Op
	}
	var calls []call
	r.SetCommitHook(func(gen uint64, ops []Op) error {
		calls = append(calls, call{gen, ops})
		return nil
	})
	if err := r.Add(sample("1")); err != nil {
		t.Fatal(err)
	}
	if err := r.Replace(sample("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ApplyBatch([]Op{
		{Kind: OpAdd, ID: "2", Workflow: sample("2")},
		{Kind: OpRemove, ID: "1"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("2"); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 4 {
		t.Fatalf("hook fired %d times, want 4", len(calls))
	}
	for i, c := range calls {
		if c.gen != uint64(i+1) {
			t.Errorf("call %d carries generation %d, want %d", i, c.gen, i+1)
		}
	}
	if len(calls[2].ops) != 2 {
		t.Errorf("batch hook got %d ops, want 2", len(calls[2].ops))
	}
	if calls[1].ops[0].Kind != OpReplace || calls[3].ops[0].Kind != OpRemove {
		t.Errorf("hook op kinds wrong: %+v / %+v", calls[1].ops, calls[3].ops)
	}
}

func TestCommitHookErrorAbortsCommit(t *testing.T) {
	r, err := NewRepository(sample("1"))
	if err != nil {
		t.Fatal(err)
	}
	genBefore := r.Generation()
	hookErr := errors.New("denied")
	r.SetCommitHook(func(uint64, []Op) error {
		return hookErr
	})
	if err := r.Add(sample("2")); err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("Add with failing hook: %v", err)
	}
	if _, err := r.ApplyBatch([]Op{{Kind: OpRemove, ID: "1"}}); err == nil {
		t.Fatal("ApplyBatch with failing hook succeeded")
	}
	if r.Generation() != genBefore || r.Snapshot().Size() != 1 || r.Snapshot().Get("2") != nil {
		t.Fatalf("aborted commit leaked state: gen %d size %d", r.Generation(), r.Snapshot().Size())
	}
	// Validation failures must surface before the hook is consulted.
	fired := false
	r.SetCommitHook(func(uint64, []Op) error { fired = true; return nil })
	if err := r.Add(sample("1")); err == nil {
		t.Fatal("duplicate add accepted")
	}
	if fired {
		t.Fatal("hook fired for a mutation that failed validation")
	}
}

func TestRestoreOnlyOnFreshRepository(t *testing.T) {
	r, err := NewRepository()
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	r.SetCommitHook(func(uint64, []Op) error { fired = true; return nil })
	if err := r.Restore(7, sample("1"), sample("2")); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("Restore fired the commit hook; recovery must not re-log itself")
	}
	if r.Generation() != 7 || r.Snapshot().Size() != 2 {
		t.Fatalf("restored gen %d size %d, want 7/2", r.Generation(), r.Snapshot().Size())
	}
	if got := r.Snapshot().IDs(); !reflect.DeepEqual(got, []string{"1", "2"}) {
		t.Fatalf("restored IDs %v", got)
	}
	if err := r.Restore(9, sample("3")); err == nil {
		t.Fatal("second Restore accepted on a non-fresh repository")
	}
	r2, _ := NewRepository(sample("1"))
	if err := r2.Restore(1, sample("2")); err == nil {
		t.Fatal("Restore accepted on a pre-populated repository")
	}
	// Restore validates its input like any other mutation path.
	r3, _ := NewRepository()
	if err := r3.Restore(1, sample("dup"), sample("dup")); err == nil {
		t.Fatal("Restore accepted duplicate IDs")
	}
	if r3.Snapshot().Size() != 0 || r3.Generation() != 0 {
		t.Fatal("failed Restore mutated the repository")
	}
}

// TestAdoptSymtabAlwaysInterns: a repository interns into the table it
// adopts or, without one, into its own; there is no table-less mode, so
// AdoptSymtab(nil) is refused and leaves the repository interning.
func TestAdoptSymtabAlwaysInterns(t *testing.T) {
	r, err := NewRepository()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AdoptSymtab(nil); err == nil {
		t.Fatal("AdoptSymtab(nil) accepted")
	}
	tab := symtab.New()
	if err := r.AdoptSymtab(tab); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(sample("1")); err != nil {
		t.Fatal(err)
	}
	if r.Symtab() != tab || !r.Snapshot().Get("1").ResolvedBy(tab) {
		t.Fatal("the repository did not intern into the adopted table")
	}
	if err := r.AdoptSymtab(symtab.New()); err == nil {
		t.Fatal("AdoptSymtab accepted on a non-empty repository")
	}
	own, _ := NewRepository(sample("2"))
	if own.Symtab() == nil || !own.Snapshot().Get("2").ResolvedBy(own.Symtab()) {
		t.Fatal("a bare repository did not intern into its own table")
	}
}

// TestRevisionsNameCommittedObjects: every stored object carries the
// generation it was committed, seeded or restored under, plus one; an object
// is stamped once, after the commit hook has accepted its batch, and an
// input some repository already committed is stored as a copy — so one
// (ID, revision) never answers to two contents.
func TestRevisionsNameCommittedObjects(t *testing.T) {
	r, err := NewRepository(sample("1"))
	if err != nil {
		t.Fatal(err)
	}
	seeded := r.Snapshot().Get("1")
	if seeded.Rev() != 1 {
		t.Errorf("seeded revision = %d, want 1 (generation 0 + 1)", seeded.Rev())
	}
	added := sample("2")
	if err := r.Add(added); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot().Get("2") != added || added.Rev() != r.Generation()+1 {
		t.Errorf("added object: stored %v, revision %d at generation %d; want the input itself at generation + 1", r.Snapshot().Get("2") == added, added.Rev(), r.Generation())
	}

	// A refused batch stamps nothing: not a fresh input, and above all not
	// the stored object readers share.
	r.SetCommitHook(func(uint64, []Op) error { return errors.New("denied") })
	fresh := sample("3")
	if err := r.Add(fresh); err == nil {
		t.Fatal("Add with failing hook succeeded")
	}
	if fresh.Rev() != 0 {
		t.Errorf("refused add stamped its input with revision %d", fresh.Rev())
	}
	if err := r.Replace(seeded); err == nil {
		t.Fatal("self-replace with failing hook succeeded")
	}
	if r.Snapshot().Get("1") != seeded || seeded.Rev() != 1 {
		t.Errorf("refused self-replace touched the stored object: same %v, revision %d", r.Snapshot().Get("1") == seeded, seeded.Rev())
	}

	// An accepted self-replace commits a copy under a new revision and leaves
	// the object pinned readers may hold exactly as it was.
	r.SetCommitHook(nil)
	if err := r.Replace(seeded); err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot().Get("1"); got == seeded || got.Rev() != r.Generation()+1 || seeded.Rev() != 1 {
		t.Errorf("self-replace: stored the input itself %v, stored revision %d at generation %d, input revision %d", got == seeded, got.Rev(), r.Generation(), seeded.Rev())
	}
	// So does re-adding a pointer that was removed.
	if err := r.Remove("2"); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(added); err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot().Get("2"); got == added || got.Rev() != r.Generation()+1 {
		t.Errorf("re-added pointer: stored the input itself %v, revision %d at generation %d", got == added, got.Rev(), r.Generation())
	}

	// Restore stamps the recovered generation + 1, and copies inputs another
	// repository committed (an engine's seed).
	r2, _ := NewRepository()
	recovered := sample("9")
	if err := r2.Restore(7, recovered, seeded); err != nil {
		t.Fatal(err)
	}
	if r2.Snapshot().Get("9") != recovered || recovered.Rev() != 8 {
		t.Errorf("restored object: stored %v, revision %d, want the input itself at 8", r2.Snapshot().Get("9") == recovered, recovered.Rev())
	}
	if got := r2.Snapshot().Get("1"); got == seeded || got.Rev() != 8 || seeded.Rev() != 1 {
		t.Errorf("restored seed object: stored the input itself %v, revision %d, input revision %d", got == seeded, got.Rev(), seeded.Rev())
	}
}

// TestApplyBatchMatchesSliceModel drives random add/remove/replace batches
// against a plain slice that applies the same ops one at a time. Ops inside
// one batch often touch the same ID — add then remove, replace twice, remove
// then add — and some batches end in an op that cannot apply. After every
// batch Workflows() must list the model's objects in the model's order, Get
// must return them, and IDs the batch removed must be gone.
func TestApplyBatchMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		repo, err := NewRepository()
		if err != nil {
			t.Fatal(err)
		}
		var model []*workflow.Workflow
		nextID := 0
		// pick favours the newest entries, which are often this batch's own.
		pick := func(wfs []*workflow.Workflow) int {
			if r.Intn(2) == 0 {
				return len(wfs) - 1 - r.Intn(min(2, len(wfs)))
			}
			return r.Intn(len(wfs))
		}
		for b := 0; b < 200; b++ {
			staged := slices.Clone(model)
			var ops []Op
			for n := 1 + r.Intn(6); len(ops) < n; {
				switch kind := r.Intn(3); {
				case kind == 0 || len(staged) == 0:
					w := sample(strconv.Itoa(nextID))
					nextID++
					ops = append(ops, Op{Kind: OpAdd, ID: w.ID, Workflow: w})
					staged = append(staged, w)
				case kind == 1:
					i := pick(staged)
					ops = append(ops, Op{Kind: OpRemove, ID: staged[i].ID})
					staged = slices.Delete(staged, i, i+1)
				default:
					i := pick(staged)
					w := sample(staged[i].ID)
					ops = append(ops, Op{Kind: OpReplace, ID: w.ID, Workflow: w})
					staged[i] = w
				}
			}
			valid := r.Intn(8) != 0
			if !valid {
				ops = append(ops, Op{Kind: OpRemove, ID: "absent"})
			}
			gen := repo.Generation()
			_, err := repo.ApplyBatch(ops)
			switch {
			case valid && err != nil:
				t.Fatalf("seed %d batch %d: %v", seed, b, err)
			case !valid && (err == nil || repo.Generation() != gen):
				t.Fatalf("seed %d batch %d: a batch ending in an unknown remove committed (err %v)", seed, b, err)
			case valid:
				model = staged
			}
			if got := repo.Snapshot().Workflows(); !slices.Equal(got, model) {
				t.Fatalf("seed %d batch %d: Workflows() = %v, model %v", seed, b, idsOf(got), idsOf(model))
			}
			for _, w := range model {
				if repo.Snapshot().Get(w.ID) != w {
					t.Fatalf("seed %d batch %d: Get(%q) is not the model's object", seed, b, w.ID)
				}
			}
			for _, op := range ops {
				if !slices.ContainsFunc(model, func(w *workflow.Workflow) bool { return w.ID == op.ID }) && repo.Snapshot().Get(op.ID) != nil {
					t.Fatalf("seed %d batch %d: removed %q is still found", seed, b, op.ID)
				}
			}
		}
	}
}

func idsOf(wfs []*workflow.Workflow) []string {
	out := make([]string, len(wfs))
	for i, w := range wfs {
		out[i] = w.ID
	}
	return out
}
