// Package corpus manages collections of scientific workflows: a mutable,
// snapshot-versioned in-memory repository with ID lookup, and JSON
// (de)serialisation so generated corpora and their ground truth can be
// stored, shared and reloaded — the paper's equivalent artefacts are the
// myExperiment dump transformed into a custom graph format and the published
// gold-standard ratings.
//
// The repository is copy-on-write: writers mutate private state under a
// lock, and readers pin an immutable Snapshot that is rebuilt lazily after
// the next write. An in-flight scan over a pinned Snapshot is therefore
// never torn by a concurrent Add/Remove/ApplyBatch, and a whole mutation
// batch becomes visible atomically under a single new generation number —
// the continuous-ingest-with-versioned-snapshots design of large living
// catalogs, scaled down to one process.
package corpus

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/symtab"
	"repro/internal/workflow"
)

// Sentinel errors wrapped by mutation failures, so callers (e.g. an HTTP
// layer mapping conflicts vs. malformed requests) can discriminate with
// errors.Is instead of string matching.
var (
	// ErrNotFound: a Remove/Replace named an ID the repository lacks.
	ErrNotFound = errors.New("workflow not found")
	// ErrDuplicateID: an Add reused an existing workflow ID.
	ErrDuplicateID = errors.New("duplicate workflow ID")
)

// Snapshot is an immutable, generation-stamped view of a repository. All
// read methods are safe for concurrent use and unaffected by later writes
// to the Repository the snapshot was taken from.
type Snapshot struct {
	workflows []*workflow.Workflow
	byID      map[string]*workflow.Workflow
	gen       uint64
}

// Get returns the workflow with the given ID, or nil.
func (s *Snapshot) Get(id string) *workflow.Workflow { return s.byID[id] }

// Size returns the number of workflows in the snapshot.
func (s *Snapshot) Size() int { return len(s.workflows) }

// Workflows returns the workflows in insertion order. The slice is shared
// with other readers of the same snapshot; callers must not modify it.
func (s *Snapshot) Workflows() []*workflow.Workflow { return s.workflows }

// Generation returns the repository generation this snapshot captures.
// Generations start at 0 for an empty repository and increase by exactly one
// per successful mutation call (a whole ApplyBatch counts once).
func (s *Snapshot) Generation() uint64 { return s.gen }

// IDs returns all workflow IDs in the snapshot, sorted.
func (s *Snapshot) IDs() []string {
	ids := make([]string, 0, len(s.workflows))
	for _, wf := range s.workflows {
		ids = append(ids, wf.ID)
	}
	sort.Strings(ids)
	return ids
}

// Repository is a mutable collection of workflows with unique IDs. It has
// no read API of its own: a reader pins the current Snapshot once and reads
// everything from it, so two reads of one operation cannot straddle a
// write. Writes (Add, Remove, Replace, ApplyBatch) are serialised by
// an internal lock and each bumps the generation counter.
type Repository struct {
	mu        sync.Mutex
	workflows []*workflow.Workflow
	byID      map[string]*workflow.Workflow
	gen       atomic.Uint64
	snap      atomic.Pointer[Snapshot]
	hook      CommitHook

	// syms is the repository's symbol table: every ingested workflow is
	// resolved against it (module labels, canonical labels, types, and
	// the workflow's own ID are interned into dense uint32 symbols)
	// before the commit hook fires and before the mutation becomes
	// visible, so snapshot readers always observe resolved workflows.
	// Created lazily; shared across shards via AdoptSymtab.
	syms *symtab.Table
}

// CommitHook intercepts mutations inside the transaction boundary: it is
// called after a batch has fully validated but before any in-memory state
// changes, with the generation the batch will commit under and the ops it
// contains. A non-nil error aborts the commit and leaves the repository
// untouched — this is how a write-ahead log makes the in-memory commit
// conditional on durability. The hook runs under the repository's write
// lock: it must not call back into the repository.
type CommitHook func(gen uint64, ops []Op) error

// SetCommitHook installs (or, with nil, removes) the repository's commit
// hook. It applies to all mutation paths: Add, Remove, Replace and
// ApplyBatch all fire it exactly once per committed transaction.
func (r *Repository) SetCommitHook(h CommitHook) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hook = h
}

// fireHookLocked invokes the commit hook, if any, for a validated batch
// about to commit under the next generation.
func (r *Repository) fireHookLocked(ops []Op) error {
	if r.hook == nil {
		return nil
	}
	if err := r.hook(r.gen.Load()+1, ops); err != nil {
		return fmt.Errorf("corpus: commit hook: %w", err)
	}
	return nil
}

// NewRepository builds a repository from the given workflows.
// Duplicate or empty IDs are rejected.
func NewRepository(wfs ...*workflow.Workflow) (*Repository, error) {
	r := &Repository{byID: make(map[string]*workflow.Workflow, len(wfs))}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, wf := range wfs {
		wf = r.resolveLocked(wf)
		if err := r.addLocked(wf, 1); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// symsLocked returns the repository's symbol table, creating it lazily.
func (r *Repository) symsLocked() *symtab.Table {
	if r.syms == nil {
		r.syms = symtab.New()
	}
	return r.syms
}

// resolveLocked interns a workflow about to be ingested and returns the
// repository-owned object. Normally that is wf itself, but the repository
// only ever resolves and stamps objects no reader can see, so two kinds of
// input are cloned first. A workflow already resolved by a *different*
// symbol table: re-resolving it in place would rewrite its module IDs out
// from under whoever owns that other table, silently corrupting their
// equal-ID fast paths. And a workflow that already carries a revision or is
// the object stored under its ID (a self-replace, a re-added pointer): some
// repository committed it, so pinned readers may share it, and restamping
// it could let two contents answer to one (SymID, Rev). The clone drops all
// derived state, so it re-resolves cleanly against this repository's table.
func (r *Repository) resolveLocked(wf *workflow.Workflow) *workflow.Workflow {
	if wf == nil {
		return nil
	}
	t := r.symsLocked()
	if ref := wf.SymtabRef(); wf.Rev() != 0 || r.byID[wf.ID] == wf || (ref != nil && ref != t) {
		wf = wf.Clone()
	}
	wf.Resolve(t)
	return wf
}

// Symtab returns the repository's shared symbol table, creating it if
// necessary.
func (r *Repository) Symtab() *symtab.Table {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.symsLocked()
}

// AdoptSymtab installs a shared symbol table on an empty, never-mutated
// repository — the boot path of sharded engines, where every shard's
// repository must assign symbols from one table so cross-shard scans
// compare IDs directly. The table may already hold symbols (another shard
// restored first); interning is idempotent. A repository always interns, so
// a nil table is an error.
func (r *Repository) AdoptSymtab(t *symtab.Table) error {
	if t == nil {
		return fmt.Errorf("corpus: AdoptSymtab(nil): a repository always interns")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.workflows) != 0 || r.gen.Load() != 0 {
		return fmt.Errorf("corpus: AdoptSymtab on non-empty repository (size %d, generation %d)", len(r.workflows), r.gen.Load())
	}
	r.syms = t
	return nil
}

// addLocked is the single insertion path shared by NewRepository and
// ApplyBatch; it validates the workflow, stamps it with the revision it
// commits under and mutates the private state.
func (r *Repository) addLocked(wf *workflow.Workflow, rev uint64) error {
	if err := r.checkAddable(wf, r.hasLocked); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	wf.StampRev(rev)
	r.workflows = append(r.workflows, wf)
	r.byID[wf.ID] = wf
	return nil
}

// hasLocked reports whether the live repository holds the given ID.
func (r *Repository) hasLocked(id string) bool {
	_, ok := r.byID[id]
	return ok
}

// checkAddable validates an insertion against a membership test (the live
// index, or a staged overlay during batch validation). Errors carry no
// package prefix; callers add their own context.
func (r *Repository) checkAddable(wf *workflow.Workflow, has func(id string) bool) error {
	switch {
	case wf == nil:
		return fmt.Errorf("nil workflow (repository size %d)", len(r.workflows))
	case wf.ID == "":
		return fmt.Errorf("workflow without ID (repository size %d)", len(r.workflows))
	}
	if has(wf.ID) {
		return fmt.Errorf("%w %q (repository size %d)", ErrDuplicateID, wf.ID, len(r.workflows))
	}
	return nil
}

// invalidateLocked bumps the generation and drops the cached snapshot after
// a successful mutation.
func (r *Repository) invalidateLocked() uint64 {
	gen := r.gen.Add(1)
	r.snap.Store(nil)
	return gen
}

// Add inserts a workflow; its ID must be non-empty and unique. Like Remove
// and Replace it is a one-op ApplyBatch: there is one transaction body.
func (r *Repository) Add(wf *workflow.Workflow) error {
	_, err := r.ApplyBatch(oneOp(OpAdd, wf))
	return err
}

// Remove deletes the workflow with the given ID.
func (r *Repository) Remove(id string) error {
	_, err := r.ApplyBatch([]Op{{Kind: OpRemove, ID: id}})
	return err
}

// Replace swaps the workflow with wf.ID for wf, keeping its position.
func (r *Repository) Replace(wf *workflow.Workflow) error {
	_, err := r.ApplyBatch(oneOp(OpReplace, wf))
	return err
}

// oneOp wraps a workflow-carrying mutation as a batch (a nil workflow is
// left for batch validation to reject).
func oneOp(kind OpKind, wf *workflow.Workflow) []Op {
	op := Op{Kind: kind, Workflow: wf}
	if wf != nil {
		op.ID = wf.ID
	}
	return []Op{op}
}

// removeLocked and replaceLocked are the commit-pass mutations of a
// validated batch: the ID is known to be present, so the stored object is
// found by identity rather than by comparing every ID. The mutable slice is
// never shared with snapshots (Snapshot copies it), so it is edited in place.
func (r *Repository) removeLocked(id string) {
	i := slices.Index(r.workflows, r.byID[id])
	r.workflows = slices.Delete(r.workflows, i, i+1)
	delete(r.byID, id)
}

func (r *Repository) replaceLocked(wf *workflow.Workflow, rev uint64) {
	wf.StampRev(rev)
	r.workflows[slices.Index(r.workflows, r.byID[wf.ID])] = wf
	r.byID[wf.ID] = wf
}

// OpKind discriminates batch mutation operations.
type OpKind int

const (
	// OpAdd inserts Op.Workflow (ID must be new).
	OpAdd OpKind = iota + 1
	// OpRemove deletes the workflow with Op.ID.
	OpRemove
	// OpReplace swaps the workflow with Op.Workflow.ID for Op.Workflow.
	OpReplace
)

// Op is one mutation in an ApplyBatch transaction. Workflow is set for
// OpAdd/OpReplace; ID is set for OpRemove (and mirrors Workflow.ID
// otherwise).
type Op struct {
	Kind     OpKind
	ID       string
	Workflow *workflow.Workflow
}

// validateBatchLocked runs the validation pass of a mutation batch over a
// staged overlay of the current state; nothing is mutated. It is the prepare
// phase of a transaction: an error means the batch cannot commit here. The
// overlay holds only the IDs the batch itself touches (true = staged in,
// false = staged out) and falls through to the live index for the rest, so
// validation costs O(batch), not O(corpus).
func (r *Repository) validateBatchLocked(ops []Op) error {
	staged := make(map[string]bool, len(ops))
	has := func(id string) bool {
		if present, ok := staged[id]; ok {
			return present
		}
		return r.hasLocked(id)
	}
	for i, op := range ops {
		switch op.Kind {
		case OpAdd:
			if err := r.checkAddable(op.Workflow, has); err != nil {
				return fmt.Errorf("corpus: batch op %d: %w", i, err)
			}
			staged[op.Workflow.ID] = true
		case OpRemove:
			if !has(op.ID) {
				return fmt.Errorf("corpus: batch op %d: workflow %q %w (repository size %d)", i, op.ID, ErrNotFound, len(r.workflows))
			}
			staged[op.ID] = false
		case OpReplace:
			if op.Workflow == nil {
				return fmt.Errorf("corpus: batch op %d: nil workflow (repository size %d)", i, len(r.workflows))
			}
			if !has(op.Workflow.ID) {
				return fmt.Errorf("corpus: batch op %d: workflow %q %w (repository size %d)", i, op.Workflow.ID, ErrNotFound, len(r.workflows))
			}
		default:
			return fmt.Errorf("corpus: batch op %d: invalid op kind %d", i, op.Kind)
		}
	}
	return nil
}

// ValidateBatch checks whether a mutation batch would commit against the
// current state, without mutating anything and without firing the commit
// hook. It is the prepare phase of a cross-repository transaction: a
// coordinator validates a split batch on every touched repository before
// committing to any of them. A nil error is a point-in-time statement; it
// stays true only while the caller prevents interleaved writers.
func (r *Repository) ValidateBatch(ops []Op) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.validateBatchLocked(ops)
}

// ApplyBatch applies a transactional mutation batch: every op is validated
// against the repository state with all preceding ops of the batch staged,
// and either the whole batch commits under a single new generation or the
// repository is left untouched. The new generation is returned on success.
func (r *Repository) ApplyBatch(ops []Op) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byID == nil {
		r.byID = map[string]*workflow.Workflow{}
	}
	if len(ops) == 0 {
		return r.gen.Load(), nil
	}
	if err := r.validateBatchLocked(ops); err != nil {
		return 0, err
	}
	// Resolve incoming workflows before the hook. Resolution may substitute
	// a clone for a foreign-resolved input, so the ops are rewritten in
	// place: the hook and the commit pass below must both see the owned
	// object.
	for i := range ops {
		if ops[i].Kind == OpAdd || ops[i].Kind == OpReplace {
			ops[i].Workflow = r.resolveLocked(ops[i].Workflow)
		}
	}
	// The batch is fully validated: give the commit hook (e.g. a write-ahead
	// log) its one chance to veto before any in-memory state changes.
	if err := r.fireHookLocked(ops); err != nil {
		return 0, err
	}
	// Commit pass: every op was validated against its staged state, so the
	// mirrored mutations cannot fail. Only now, with the hook's veto behind
	// it, are the incoming objects stamped: revision = the generation the
	// batch commits under, plus one.
	rev := r.gen.Load() + 2
	for _, op := range ops {
		switch op.Kind {
		case OpAdd:
			_ = r.addLocked(op.Workflow, rev) //wfsimvet:ignore errpath validated against the staged overlay; failing here would tear the committed batch
		case OpRemove:
			r.removeLocked(op.ID)
		case OpReplace:
			r.replaceLocked(op.Workflow, rev)
		}
	}
	return r.invalidateLocked(), nil
}

// Restore replaces the contents and generation of an empty, never-mutated
// repository with a recovered state — the boot path of a storage layer that
// loaded a snapshot and replayed a mutation log. It does not fire the
// commit hook (the restored state is by definition already durable) and
// fails on a repository that has any workflows or a non-zero generation.
func (r *Repository) Restore(gen uint64, wfs ...*workflow.Workflow) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.workflows) != 0 || r.gen.Load() != 0 {
		return fmt.Errorf("corpus: Restore into non-empty repository (size %d, generation %d)", len(r.workflows), r.gen.Load())
	}
	byID := make(map[string]*workflow.Workflow, len(wfs))
	seen := func(id string) bool { return byID[id] != nil }
	for _, wf := range wfs {
		if err := r.checkAddable(wf, seen); err != nil {
			return fmt.Errorf("corpus: restore: %w", err)
		}
		byID[wf.ID] = wf
	}
	// Resolve the recovered state in insertion order: symbol IDs are
	// process-local, so this pass is what builds the table at every boot,
	// from exactly the workflows that still exist. An input resolved by a
	// foreign table, or committed before (an engine's seed), is replaced by
	// its owned clone.
	owned := make([]*workflow.Workflow, len(wfs))
	for i, wf := range wfs {
		owned[i] = r.resolveLocked(wf)
		owned[i].StampRev(gen + 1)
		byID[owned[i].ID] = owned[i]
	}
	r.workflows = owned
	r.byID = byID
	r.gen.Store(gen)
	r.snap.Store(nil)
	return nil
}

// Snapshot pins the current immutable view of the repository. The snapshot
// is cached until the next write, so repeated calls between writes are a
// single atomic load.
func (r *Repository) Snapshot() *Snapshot {
	if s := r.snap.Load(); s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.snap.Load(); s != nil { // raced with another rebuild
		return s
	}
	s := &Snapshot{
		workflows: append([]*workflow.Workflow(nil), r.workflows...),
		byID:      make(map[string]*workflow.Workflow, len(r.workflows)),
		gen:       r.gen.Load(),
	}
	for _, wf := range r.workflows {
		s.byID[wf.ID] = wf
	}
	r.snap.Store(s)
	return s
}

// Generation returns the current repository generation.
func (r *Repository) Generation() uint64 { return r.gen.Load() }

// Validate checks every workflow in the snapshot.
func (s *Snapshot) Validate() error {
	for _, wf := range s.workflows {
		if err := wf.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// fileFormat is the on-disk JSON envelope.
type fileFormat struct {
	Format    string               `json:"format"`
	Workflows []*workflow.Workflow `json:"workflows"`
}

const formatID = "wfsim-corpus-v1"

// Save writes the snapshot as JSON.
func (s *Snapshot) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fileFormat{Format: formatID, Workflows: s.workflows})
}

// Load reads a repository from JSON produced by Save.
func Load(rd io.Reader) (*Repository, error) {
	var f fileFormat
	if err := json.NewDecoder(rd).Decode(&f); err != nil {
		return nil, fmt.Errorf("corpus: decode: %w", err)
	}
	if f.Format != formatID {
		return nil, fmt.Errorf("corpus: unexpected format %q (want %q)", f.Format, formatID)
	}
	return NewRepository(f.Workflows...)
}

// SaveFile writes the repository's current snapshot to the named file.
func (r *Repository) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := r.Snapshot().Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a repository from the named file.
func LoadFile(path string) (*Repository, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
