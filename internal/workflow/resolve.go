package workflow

import (
	"slices"

	"repro/internal/symtab"
)

// CanonicalLabel folds author-specific label styling away: lowercase, strip
// non-alphanumeric characters, strip trailing digits (version suffixes such
// as "split_string_2"). "getPathwaysByGenes" and "get_pathways_by_genes"
// share a canonical form. Package repoknow re-exports this function; it
// lives here so ingest-time resolution can compute canonical symbol IDs
// without an import cycle.
func CanonicalLabel(label string) string {
	b := make([]byte, 0, len(label))
	for i := 0; i < len(label); i++ {
		c := label[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			b = append(b, c)
		case c >= 'A' && c <= 'Z':
			b = append(b, c+'a'-'A')
		}
	}
	for len(b) > 0 && b[len(b)-1] >= '0' && b[len(b)-1] <= '9' {
		b = b[:len(b)-1]
	}
	return string(b)
}

// Resolve interns the workflow's hot strings into t and caches the
// derived representation: the symbol of every comparable module attribute
// (Module.Syms) and of each canonical label (CanonID), the workflow ID's
// own symbol, and the sorted set of canonical label IDs with its bitset
// summary. The kernels below the
// measures read only this representation, and only on workflows one table
// resolved; which table does not matter, so resolving never changes a
// score. A nil table leaves the workflow unresolved.
func (w *Workflow) Resolve(t *symtab.Table) {
	if t == nil {
		return
	}
	w.symID = t.Intern(w.ID)
	w.ResolveModules(t)
}

// ResolveModules is Resolve without the workflow's own ID, which stays
// symbol 0: the resolution of an inline search query. Its modules compare
// on the symbol path like any stored workflow's, but the query has no cache
// identity (see Rev), so interning its ID — often unique per request — would
// only grow the table.
func (w *Workflow) ResolveModules(t *symtab.Table) {
	if t == nil {
		return
	}
	set := make([]uint32, 0, len(w.Modules))
	for _, m := range w.Modules {
		m.Syms = [NumAttrs]uint32{} // the empty string is symbol 0
		for a := range m.Syms {
			if v := m.Value(Attr(a)); v != "" {
				m.Syms[a] = t.Intern(v)
			}
		}
		m.CanonID = t.Intern(CanonicalLabel(m.Label))
		set = append(set, m.CanonID)
	}
	w.setResolved(t, set)
}

// resolveFrom resolves w by src's table without interning anything: module i
// of w is an unrenamed copy of src's module from[i], so its symbols are that
// module's. A projection is resolved this way (InducedSubgraph): interning
// every attribute of a projected workflow again would add about a third to
// the cost of projecting it.
func (w *Workflow) resolveFrom(src *Workflow, from []int) {
	set := make([]uint32, 0, len(from))
	for i, j := range from {
		m := src.Modules[j]
		w.Modules[i].Syms, w.Modules[i].CanonID = m.Syms, m.CanonID
		set = append(set, m.CanonID)
	}
	w.setResolved(src.tab, set)
}

// setResolved marks w resolved by t, with set the canonical label IDs of its
// modules (in any order, repeats and the empty label's 0 allowed).
func (w *Workflow) setResolved(t *symtab.Table, set []uint32) {
	slices.Sort(set)
	set = slices.Compact(set)
	if len(set) > 0 && set[0] == 0 {
		set = set[1:]
	}
	w.labelSet = set
	w.labelBits = Bitset256{}
	for _, id := range set {
		w.labelBits.Set(id)
	}
	w.resolved = true
	w.tab = t
}

// ResolvedBy reports whether the workflow's interned representation was
// produced by t. Symbol IDs are only meaningful relative to the table
// that assigned them; consumers holding their own table must re-derive
// IDs for workflows resolved elsewhere.
func (w *Workflow) ResolvedBy(t *symtab.Table) bool {
	return w.resolved && w.tab == t
}

// SymtabRef returns the table that resolved this workflow, or nil when
// unresolved.
func (w *Workflow) SymtabRef() *symtab.Table {
	if !w.resolved {
		return nil
	}
	return w.tab
}

// Resolved reports whether the workflow carries an interned hot
// representation (set by Resolve, cleared by mutation).
func (w *Workflow) Resolved() bool { return w.resolved }

// SymID returns the interned symbol of the workflow's own ID, or zero if
// the workflow is unresolved.
func (w *Workflow) SymID() uint32 { return w.symID }

// Rev returns the workflow's repository revision: the generation of the
// owning repository it was committed, seeded or restored under, plus one, so
// zero means "not a repository object" (an inline query, a clone, a mutated
// workflow). A repository's generation only grows and an ID lives in one
// repository, so (SymID, Rev) names exactly one committed content version
// for the life of the process — the identity score caches key by.
func (w *Workflow) Rev() uint64 { return w.rev }

// StampRev records the revision w is committed under. Only the owning
// repository calls it, on an object no reader can see yet.
func (w *Workflow) StampRev(rev uint64) { w.rev = rev }

// LabelSet returns the sorted, deduplicated canonical label symbol IDs,
// or nil if unresolved. The slice is shared cache state; callers must
// not modify it.
func (w *Workflow) LabelSet() []uint32 { return w.labelSet }

// Bitset256 is a fixed-width, 256-bit membership summary over symbol IDs
// (bit index = id mod 256). It cannot answer membership exactly, but a
// zero AND of two summaries proves the underlying sets are disjoint, and
// the popcount of the AND upper-bounds the true overlap — the prescreen
// that lets merge kernels skip provably-disjoint pairs.
type Bitset256 [4]uint64

// Set marks id's bit.
func (b *Bitset256) Set(id uint32) {
	b[(id>>6)&3] |= 1 << (id & 63)
}

// Disjoint reports whether the two summaries share no bit — a proof that
// the summarized sets are disjoint.
//
//wfsimvet:hotpath
func (b *Bitset256) Disjoint(o *Bitset256) bool {
	return b[0]&o[0]|b[1]&o[1]|b[2]&o[2]|b[3]&o[3] == 0
}

// IntersectCount returns |a ∩ b| for two sorted, deduplicated ID slices
// via a single allocation-free merge pass.
//
//wfsimvet:hotpath
func IntersectCount(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// LabelOverlap returns the number of shared canonical labels between two
// workflows one symbol table resolved (an unresolved workflow has no label
// set). The bitset prescreen rejects provably-disjoint pairs without
// touching the sorted sets.
//
//wfsimvet:hotpath
func LabelOverlap(a, b *Workflow) int {
	if a.labelBits.Disjoint(&b.labelBits) {
		return 0
	}
	return IntersectCount(a.labelSet, b.labelSet)
}
