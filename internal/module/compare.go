// Package module implements pairwise module comparison (Section 2.1.1 of
// Starlinger et al., PVLDB 2014): configurable multi-attribute similarity
// with per-attribute comparators and weights, the concrete weighting schemes
// evaluated in the paper (pw0, pw3, pll, plm and the Galaxy variants gw1,
// gll), and module-pair preselection strategies (all pairs, strict type
// match, type-equivalence classes).
//
// The weight matrix of two workflows is the per-pair kernel of every
// structural scan, so it has a dense form beside the plain one: AcquireMatrix
// fills a pooled flat buffer instead of allocating rows. The kernels compare
// symbol IDs, not strings: every attribute a scheme compares is interned at
// ingest (workflow.Module.Syms), so equal values are one integer compare,
// and edit-distance comparisons of distinct values go through a memo
// (SimMemo) keyed by symbol-ID pair, read without a lock, that lives as long
// as the symbol table it belongs to: a value pair is compared once per
// process, not once per scan. Every form returns the same bits. A kernel
// only ever sees modules of workflows one symbol table resolved; the
// measures enforce that before they call it, and package oracle holds the
// kernels to a string definition of the same similarities.
package module

import "repro/internal/workflow"

// Comparator is a similarity function on attribute values, returning a value
// in [0,1].
type Comparator int

const (
	// Exact yields 1 for identical strings, 0 otherwise.
	Exact Comparator = iota
	// EditDistance yields the length-normalised Levenshtein similarity.
	EditDistance
)

// String implements fmt.Stringer.
func (c Comparator) String() string {
	switch c {
	case Exact:
		return "exact"
	case EditDistance:
		return "editdistance"
	}
	return "unknown"
}

// AttributeSpec configures how one attribute contributes to module
// similarity.
type AttributeSpec struct {
	Attr   workflow.Attr
	Weight float64
	Cmp    Comparator
}

// Scheme is a complete module-comparison configuration: a named set of
// attribute specs. Module similarity (Scheme.SimilarityMemo) is the weighted
// mean of per-attribute similarities over the attributes present in at least
// one of the modules; weights are renormalised over present attributes so
// that modules of types carrying fewer attributes (e.g. local operations
// without a ServiceURI) are not penalised for structurally absent data.
type Scheme struct {
	Name  string
	Specs []AttributeSpec
}

// PW0 is the paper's default scheme: uniform weights on all attributes,
// exact string matching for module type and the web-service properties
// (authority, service name, service URI), Levenshtein edit distance for
// labels, descriptions and scripts.
func PW0() Scheme {
	return Scheme{
		Name: "pw0",
		Specs: []AttributeSpec{
			{workflow.AttrType, 1, Exact},
			{workflow.AttrAuthority, 1, Exact},
			{workflow.AttrServiceName, 1, Exact},
			{workflow.AttrServiceURI, 1, Exact},
			{workflow.AttrLabel, 1, EditDistance},
			{workflow.AttrDescription, 1, EditDistance},
			{workflow.AttrScript, 1, EditDistance},
		},
	}
}

// PW3 compares the same attributes as PW0 but with tuned, non-uniform
// weights: highest on labels, script and service URI, then service name,
// then service authority (after Silva et al. 2011).
func PW3() Scheme {
	return Scheme{
		Name: "pw3",
		Specs: []AttributeSpec{
			{workflow.AttrLabel, 3, EditDistance},
			{workflow.AttrScript, 3, EditDistance},
			{workflow.AttrServiceURI, 3, Exact},
			{workflow.AttrServiceName, 2, Exact},
			{workflow.AttrAuthority, 1, Exact},
			{workflow.AttrType, 1, Exact},
			{workflow.AttrDescription, 1, EditDistance},
		},
	}
}

// PLL disregards all attributes but the labels and compares them by edit
// distance (after Bergmann & Gil 2012).
func PLL() Scheme {
	return Scheme{
		Name:  "pll",
		Specs: []AttributeSpec{{workflow.AttrLabel, 1, EditDistance}},
	}
}

// PLM disregards all attributes but the labels and compares them by strict
// string matching (after Santos et al. 2008, Goderis et al. 2006, Xiang &
// Madey 2007).
func PLM() Scheme {
	return Scheme{
		Name:  "plm",
		Specs: []AttributeSpec{{workflow.AttrLabel, 1, Exact}},
	}
}

// GW1 is the Galaxy-profile scheme of Section 5.3: a selection of attributes
// compared with uniform weights (labels and tool parameters by edit
// distance, tool id/type exactly).
func GW1() Scheme {
	return Scheme{
		Name: "gw1",
		Specs: []AttributeSpec{
			{workflow.AttrLabel, 1, EditDistance},
			{workflow.AttrType, 1, Exact},
			{workflow.AttrServiceName, 1, Exact}, // Galaxy tool id
			{workflow.AttrParams, 1, EditDistance},
		},
	}
}

// GLL compares only module labels by edit distance on Galaxy workflows.
func GLL() Scheme {
	return Scheme{
		Name:  "gll",
		Specs: []AttributeSpec{{workflow.AttrLabel, 1, EditDistance}},
	}
}

// SchemeByName resolves a scheme identifier as used in algorithm notation
// (e.g. the "pll" in "MS_ip_te_pll"). It returns false for unknown names.
func SchemeByName(name string) (Scheme, bool) {
	switch name {
	case "pw0":
		return PW0(), true
	case "pw3":
		return PW3(), true
	case "pll":
		return PLL(), true
	case "plm":
		return PLM(), true
	case "gw1":
		return GW1(), true
	case "gll":
		return GLL(), true
	}
	return Scheme{}, false
}
