// Package symtab provides a concurrent, append-only string↔ID symbol
// table. IDs are dense uint32 values handed out in interning order. They
// are process-local: nothing stores them, and every boot rebuilds the table
// by re-resolving the recovered corpus — which also drops the symbols of
// workflows that no longer exist.
//
// ID 0 is reserved for the empty string. A zero symbol therefore renders
// as "" everywhere, which is exactly what a zero-value module should print
// (never a placeholder like "<sym:0>").
package symtab

import "sync"

// Table is a concurrent append-only symbol table. The zero value is not
// usable; call New.
type Table struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string
}

// New returns an empty table with the empty string pre-interned as ID 0.
func New() *Table {
	t := &Table{ids: make(map[string]uint32, 64)}
	t.ids[""] = 0
	t.strs = append(t.strs, "")
	return t
}

// Intern returns the ID for s, assigning the next dense ID if s has not
// been seen before. IDs are never reused or reassigned.
func (t *Table) Intern(s string) uint32 {
	t.mu.RLock()
	id, ok := t.ids[s]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[s]; ok {
		return id
	}
	id = uint32(len(t.strs))
	t.ids[s] = id
	t.strs = append(t.strs, s)
	return id
}

// Lookup returns the ID for s without interning. The second result is
// false when s has never been interned.
func (t *Table) Lookup(s string) (uint32, bool) {
	t.mu.RLock()
	id, ok := t.ids[s]
	t.mu.RUnlock()
	return id, ok
}

// String resolves an ID back to its string. Unknown IDs — including the
// zero ID of an unresolved module — resolve to the empty string, so
// rendering through the table can never leak a "<sym:N>" placeholder.
func (t *Table) String(id uint32) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(id) >= len(t.strs) {
		return ""
	}
	return t.strs[id]
}

// Len returns the number of interned symbols, including the reserved
// empty string at ID 0.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.strs)
}
