// Package workflow defines the scientific-workflow data model used throughout
// this repository: directed acyclic graphs of attributed data-processing
// modules connected by datalinks, annotated with repository metadata
// (title, description, keyword tags).
//
// The model follows Section 1 and 2 of Starlinger et al., "Similarity Search
// for Scientific Workflows" (PVLDB 2014): workflows have global inputs and
// outputs (removed during import, as in the paper's preprocessing), modules
// carry a label, a type, and type-dependent attributes such as the URI of an
// invoked web service or the body of a local script.
package workflow

import (
	"fmt"
	"sort"
	"strings"
)

// Common module type identifiers found in Taverna workflows on myExperiment.
// The heterogeneity of these identifiers (three distinct spellings for WSDL
// web services, for example) is deliberate: it mirrors the repository data
// the paper works with and is what the type-equivalence preselection (te)
// is designed to absorb.
const (
	TypeWSDL          = "wsdl"
	TypeArbitraryWSDL = "arbitrarywsdl"
	TypeSoaplabWSDL   = "soaplabwsdl"
	TypeBioMoby       = "biomobywsdl"
	TypeRESTService   = "rest"
	TypeBeanshell     = "beanshell"
	TypeRShell        = "rshell"
	TypeScript        = "script"
	TypeLocalWorker   = "localworker"
	TypeStringConst   = "stringconstant"
	TypeXMLSplitter   = "xmlsplitter"
	TypeXMLMerger     = "xmlmerger"
	TypeDataflow      = "dataflow"
	TypeTool          = "tool" // Galaxy-style tool invocation
	TypeUnknown       = "unknown"
)

// Module is a single data-processing step of a scientific workflow.
// Which attributes are populated depends on the module's type: a web-service
// module carries ServiceURI/ServiceName/Authority, a scripted module carries
// Script, a local operation typically carries only Label and Type.
type Module struct {
	// ID uniquely identifies the module within its workflow.
	ID string `json:"id"`
	// Label is the name the workflow author gave this module instance.
	Label string `json:"label"`
	// Type identifies the kind of operation (see the Type* constants).
	Type string `json:"type"`
	// Description is optional free-text documentation.
	Description string `json:"description,omitempty"`
	// Script holds the source of scripted modules (beanshell, rshell, ...).
	Script string `json:"script,omitempty"`
	// ServiceURI is the endpoint of web-service modules.
	ServiceURI string `json:"serviceURI,omitempty"`
	// ServiceName is the operation name of web-service modules.
	ServiceName string `json:"serviceName,omitempty"`
	// Authority names the organisation providing the service.
	Authority string `json:"authority,omitempty"`
	// Params holds static, data-independent configuration parameters.
	Params map[string]string `json:"params,omitempty"`

	// Syms holds the interned symbol ID of each comparable attribute,
	// indexed by Attr, and CanonID that of CanonicalLabel(Label); both are
	// set by Workflow.Resolve, and zero is the empty value. The module
	// comparison kernels read only these IDs, so they only ever compare
	// modules of workflows one symbol table resolved: the measures resolve
	// anything else into a table of their own before it reaches a kernel.
	// The IDs are derived state and are never serialized.
	Syms    [NumAttrs]uint32 `json:"-"`
	CanonID uint32           `json:"-"`
}

// Attr identifies a comparable module attribute, indexing Module.Syms.
// Which ones are populated depends on the module type (a ServiceURI exists
// only on web-service modules).
type Attr uint8

// The attributes a module-comparison scheme can compare.
const (
	AttrLabel Attr = iota
	AttrType
	AttrDescription
	AttrScript
	AttrServiceURI
	AttrServiceName
	AttrAuthority
	AttrParams
	NumAttrs // the number of attributes, not one of them
)

// Value returns the attribute's string value; AttrParams renders the
// parameters by ParamSignature.
func (m *Module) Value(a Attr) string {
	switch a {
	case AttrLabel:
		return m.Label
	case AttrType:
		return m.Type
	case AttrDescription:
		return m.Description
	case AttrScript:
		return m.Script
	case AttrServiceURI:
		return m.ServiceURI
	case AttrServiceName:
		return m.ServiceName
	case AttrAuthority:
		return m.Authority
	case AttrParams:
		return m.ParamSignature()
	}
	return ""
}

// Clone returns a deep copy of the module. Interned symbol IDs are
// dropped: a clone exists to be mutated, and stale IDs on a renamed
// module would be worse than none. Re-ingesting the clone re-resolves.
func (m *Module) Clone() *Module {
	c := *m
	c.Syms, c.CanonID = [NumAttrs]uint32{}, 0
	if m.Params != nil {
		c.Params = make(map[string]string, len(m.Params))
		for k, v := range m.Params {
			c.Params[k] = v
		}
	}
	return &c
}

// String implements fmt.Stringer for debugging output. It renders the
// string attributes directly — never the interned IDs — so a zero-value
// module prints "()" rather than a symbol placeholder, in diagnostics
// and serve responses alike.
func (m *Module) String() string {
	return fmt.Sprintf("%s(%s)", m.Label, m.Type)
}

// ParamSignature returns a deterministic rendering of the static parameters,
// usable as a comparable attribute value.
func (m *Module) ParamSignature() string {
	if len(m.Params) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m.Params))
	for k := range m.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(m.Params[k])
	}
	return b.String()
}

// IsWebService reports whether the module's type denotes a web-service call.
func (m *Module) IsWebService() bool {
	switch m.Type {
	case TypeWSDL, TypeArbitraryWSDL, TypeSoaplabWSDL, TypeBioMoby, TypeRESTService:
		return true
	}
	return false
}

// IsScripted reports whether the module's type denotes a user-provided script.
func (m *Module) IsScripted() bool {
	switch m.Type {
	case TypeBeanshell, TypeRShell, TypeScript:
		return true
	}
	return false
}

// IsLocal reports whether the module performs a predefined local operation
// (shim operations such as string splitting, constants, XML splitters).
// These are the modules the importance projection removes.
func (m *Module) IsLocal() bool {
	switch m.Type {
	case TypeLocalWorker, TypeStringConst, TypeXMLSplitter, TypeXMLMerger:
		return true
	}
	return false
}
