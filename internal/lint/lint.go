// Package lint is a self-contained static-analysis framework plus the
// analyzer suite that mechanically enforces this repository's concurrency,
// caching, and sharding contracts (command wfsimvet is the driver). The
// framework mirrors the shape of golang.org/x/tools/go/analysis — an
// Analyzer owns a Run function over a type-checked Pass and reports
// position-anchored Diagnostics — but is built only on the standard
// library's go/ast, go/parser, go/token and go/types, so the checker builds
// and runs without network access or module downloads.
//
// Findings can be silenced at a specific site with a justification comment
// on the flagged line or the line directly above it:
//
//	//wfsimvet:ignore <analyzer> <justification>
//
// The analyzer name must match (or be "*"), and the justification must be
// non-empty — a bare ignore is not recognized and the finding stands. The
// driver still counts suppressed findings, so they stay visible.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// wfsimvet:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the enforced contract; the
	// first line is the summary shown by the driver's -list flag.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	// A returned error aborts the whole run (reserved for internal
	// analyzer failures, not findings).
	Run func(*Pass) error
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed sources, with comments.
	Files []*ast.File
	// Pkg is the type-checked package; Pkg.Path() is the import path the
	// package was checked under (fixture packages are checked under the
	// path whose contract is being exercised).
	Pkg *types.Package
	// Info holds the type-checker's Uses/Defs/Types/Selections maps.
	Info *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed is set when a recognized wfsimvet:ignore directive
	// covers the finding; Justification holds the directive's reason.
	Suppressed    bool
	Justification string
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
	if d.Suppressed {
		s += fmt.Sprintf(" (suppressed: %s)", d.Justification)
	}
	return s
}

// ignoreDirective is one parsed //wfsimvet:ignore comment.
type ignoreDirective struct {
	analyzer      string
	justification string
}

// suppressions maps file name -> line -> directives on that line.
type suppressions map[string]map[int][]ignoreDirective

const ignorePrefix = "wfsimvet:ignore"

// collectSuppressions parses every //wfsimvet:ignore directive in files.
// Malformed directives (no analyzer, or no justification) are returned
// separately as findings so they cannot silently mask anything.
func collectSuppressions(fset *token.FileSet, files []*ast.File) (suppressions, []Diagnostic) {
	sup := suppressions{}
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // /* */ comments are not directives
				}
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, ignorePrefix)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Analyzer: "wfsimvet",
						Pos:      pos,
						Message:  "malformed ignore directive: want //wfsimvet:ignore <analyzer> <justification>",
					})
					continue
				}
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = map[int][]ignoreDirective{}
					sup[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], ignoreDirective{
					analyzer:      fields[0],
					justification: strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return sup, malformed
}

// match returns the covering directive for a finding of analyzer at pos: a
// directive on the same line or on the line directly above.
func (s suppressions) match(analyzer string, pos token.Position) (ignoreDirective, bool) {
	byLine := s[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range byLine[line] {
			if d.analyzer == analyzer || d.analyzer == "*" {
				return d, true
			}
		}
	}
	return ignoreDirective{}, false
}

// RunAnalyzers applies every analyzer to every package and returns all
// diagnostics — suppressed ones included, marked — sorted by position.
// Malformed ignore directives are themselves diagnostics.
func RunAnalyzers(u *Universe, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		sup, malformed := collectSuppressions(u.Fset, pkg.Files)
		out = append(out, malformed...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     u.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range pass.diags {
				if dir, ok := sup.match(a.Name, d.Pos); ok {
					d.Suppressed = true
					d.Justification = dir.justification
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// All is the full analyzer suite, in the order the driver runs it.
var All = []*Analyzer{
	PairOrder,
	SnapshotPin,
	OnePin,
	CtxFlow,
	GenStamp,
	LockScope,
	ErrPath,
	HotAlloc,
}

// ByName resolves a comma-separated analyzer selection against All.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All, nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, a := range All {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
	}
	return out, nil
}

// namedType reports whether t (after pointer indirection) is the named type
// pkgPath.name, the shared type test of the analyzer suite.
func namedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
