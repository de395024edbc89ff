package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

const workflowPkg = "repro/internal/workflow"

// PairOrder enforces the engine's canonical-pair contract: every pairwise
// score is a function of the unordered workflow pair, which holds only if
// every site orients the pair the same way — smaller ID first — before
// scoring or keying a cache. The blessed canonicalization points are
// workflow.OrderPair / OrderIDs / IDsInOrder; this analyzer flags ad-hoc
// ID-order comparisons (x.ID < y.ID and friends on workflow values) outside
// package workflow, which re-derive the convention by hand and silently
// diverge when it gains a tie-break rule. (The cache-key half of the
// contract is a type: scorecache.Key has no exported field, so PairKey is
// the only way to build one.)
//
// Comparator callbacks passed to sort/slices functions are exempt: sorting
// by ID is ordering a list, not orienting a score pair.
var PairOrder = &Analyzer{
	Name: "pairorder",
	Doc: `flag ad-hoc workflow pair ordering

Pairwise scores must be canonicalized smaller-ID-first through
workflow.OrderPair/OrderIDs/IDsInOrder, so N-shard and 1-shard runs stay
bit-identical.`,
	Run: runPairOrder,
}

func runPairOrder(pass *Pass) error {
	if pass.Pkg.Path() == workflowPkg {
		return nil // the blessed helpers themselves
	}
	for _, file := range pass.Files {
		exempt := comparatorRanges(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || !orderingOp(bin.Op) || exempt.covers(bin.Pos()) {
				return true
			}
			if isWorkflowIDSel(pass, bin.X) && isWorkflowIDSel(pass, bin.Y) {
				pass.Reportf(bin.Pos(), "ad-hoc workflow ID ordering; canonicalize pairs with workflow.OrderPair, workflow.OrderIDs or workflow.IDsInOrder")
			}
			return true
		})
	}
	return nil
}

func orderingOp(op token.Token) bool {
	switch op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
		return true
	}
	return false
}

// isWorkflowIDSel reports whether e is an ID selector on a workflow value
// (w.ID with w of type workflow.Workflow or *workflow.Workflow).
func isWorkflowIDSel(pass *Pass, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "ID" {
		return false
	}
	tv, ok := pass.Info.Types[sel.X]
	return ok && namedType(tv.Type, workflowPkg, "Workflow")
}

// posRanges is a set of source intervals.
type posRanges [][2]token.Pos

func (r posRanges) covers(p token.Pos) bool {
	for _, iv := range r {
		if iv[0] <= p && p < iv[1] {
			return true
		}
	}
	return false
}

// comparatorRanges collects the extents of function literals passed to
// sort/slices package functions — comparator callbacks, where comparing IDs
// expresses list order, not pair orientation.
func comparatorRanges(pass *Pass, file *ast.File) posRanges {
	var out posRanges
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if p := usedPackage(pass, sel.X); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				out = append(out, [2]token.Pos{lit.Pos(), lit.End()})
			}
		}
		return true
	})
	return out
}

// usedPackage returns the import path when e is an identifier naming an
// imported package, and "" otherwise.
func usedPackage(pass *Pass, e ast.Expr) string {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}
