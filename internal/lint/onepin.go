package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

const wfsimPkg = "repro/pkg/wfsim"

// pinningMethods are the *wfsim.Engine methods that pin a view of the
// corpus: Read, and the one-line wrappers that take a Reader of their own.
var pinningMethods = map[string]bool{
	"Read":         true,
	"Search":       true,
	"SearchID":     true,
	"Compare":      true,
	"Duplicates":   true,
	"Cluster":      true,
	"ParseMeasure": true,
	"Project":      true,
	"Size":         true,
}

// OnePin enforces "a read is a value" where requests are answered: in
// pkg/wfsim/serve and under cmd/, one function reaches at most one
// view-pinning *wfsim.Engine method, and a pin inside a loop counts as two.
// Every fact a handler or a command reports — a workflow and its generation
// stamp, a frontier and its per-shard blocks, a result list and the
// workflows it names — then comes from one Reader, and no commit can land
// between two of them.
var OnePin = &Analyzer{
	Name: "onepin",
	Doc: `flag a request function that pins more than one view of the engine

In pkg/wfsim/serve and cmd/..., a function may call at most one
view-pinning *wfsim.Engine method (Read, or a wrapper over it: Search,
SearchID, Compare, Duplicates, Cluster, ParseMeasure, Project, Size), and a
pin inside a loop counts as two. Take one Engine.Read and answer from it.`,
	Run: runOnePin,
}

func runOnePin(pass *Pass) error {
	if path := pass.Pkg.Path(); path != servePkg && !strings.HasPrefix(path, "repro/cmd/") {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkOnePin(pass, fd)
			}
		}
	}
	return nil
}

// checkOnePin counts the pins of one declared function, closures included,
// and reports the pin that takes the count past one.
func checkOnePin(pass *Pass, fd *ast.FuncDecl) {
	// loops are the spans a loop may run more than once: a for statement
	// past its init, a range statement past its operand.
	type span struct{ from, to token.Pos }
	var loops []span
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			from := n.Pos()
			if n.Init != nil {
				from = n.Init.End()
			}
			loops = append(loops, span{from, n.End()})
		case *ast.RangeStmt:
			loops = append(loops, span{n.X.End(), n.End()})
		}
		return true
	})
	pins := 0
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !pinningMethods[sel.Sel.Name] {
			return true
		}
		selection := pass.Info.Selections[sel]
		if selection == nil || !namedType(selection.Recv(), wfsimPkg, "Engine") {
			return true
		}
		weight := 1
		for _, l := range loops {
			if l.from <= sel.Pos() && sel.Pos() < l.to {
				weight = 2
				break
			}
		}
		if pins <= 1 && pins+weight > 1 {
			pass.Reportf(sel.Sel.Pos(), "%s pins a second view of the engine with %s; take one Engine.Read and answer from that Reader", fd.Name.Name, sel.Sel.Name)
		}
		pins += weight
		return true
	})
}
