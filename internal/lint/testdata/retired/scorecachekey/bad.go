// Fixture: scorecache.Key values built without PairKey, which once was the
// composite-literal half of the pairorder analyzer. The key's fields are
// unexported, so no literal naming one compiles outside package scorecache.
package fixture

import "repro/internal/scorecache"

func rawKeys(measure string, a, b uint32, rev, proj uint64) []scorecache.Key {
	return []scorecache.Key{
		{Measure: measure}, // want `unknown field Measure in struct literal`
		{A: b},             // want `unknown field A in struct literal`
		{B: a},             // want `unknown field B in struct literal`
		{Rev: rev},         // want `unknown field Rev in struct literal`
		{Proj: proj},       // want `unknown field Proj in struct literal`
	}
}
