// Package lockorder enforces the packer's commit discipline: in the
// packer's own package, any write to a //gridroute:versioned field (the IPP
// weight state) must be preceded, in the same function, by a bump of the
// receiver's atomic version counter.
//
// The sketch session's warm start depends on it. A session keeps its last
// DP solution and reuses it while pk.Version() is unchanged, and repairs it
// from pk.LastCommitted() when the version moved by exactly one. A weight
// write without a bump would let either path serve a route computed on
// stale weights.
//
// Deliberate exceptions are marked with //gridlint:allow; the reasons are
// part of the reviewed source.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"gridroute/internal/analysis/annotation"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "writes to //gridroute:versioned weight state need a preceding version bump",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	allows := annotation.CollectAllows(pass.Fset, pass.Files)

	// Annotated field objects declared in this package.
	versioned := make(map[*types.Var]bool)
	for _, f := range pass.Files {
		if annotation.IsTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				if !annotation.Directive(fld.Doc, annotation.Versioned) {
					continue
				}
				for _, name := range fld.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						versioned[v] = true
					}
				}
			}
			return true
		})
	}
	if len(versioned) == 0 {
		return nil, nil
	}

	for _, f := range pass.Files {
		if annotation.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkVersionBumps(pass, fn.Body, versioned, allows)
			}
		}
	}
	return nil, nil
}

// checkVersionBumps reports every versioned-field write in body that no
// <x>.version.Add(...) call precedes.
func checkVersionBumps(pass *analysis.Pass, body *ast.BlockStmt, versioned map[*types.Var]bool, allows *annotation.Allows) {
	var bumps []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" {
			if inner, ok := sel.X.(*ast.SelectorExpr); ok && inner.Sel.Name == "version" {
				bumps = append(bumps, call.Pos())
			}
		}
		return true
	})
	bumpBefore := func(pos token.Pos) bool {
		for _, b := range bumps {
			if b < pos {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			fld := writtenVersionedField(pass, versioned, lhs)
			if fld == nil || bumpBefore(lhs.Pos()) || allows.Allowed(lhs.Pos()) {
				continue
			}
			pass.Reportf(lhs.Pos(), "write to versioned field %s without a preceding version bump (%s.Add) in this function",
				fld.Name(), "version")
		}
		return true
	})
}

// writtenVersionedField resolves lhs as an element write (p.xs[e] = ..., or
// map assign p.x[e] = ...) to a versioned field, returning the field.
// Whole-field assignment (p.xs = make(...)) is initialization and exempt.
func writtenVersionedField(pass *analysis.Pass, versioned map[*types.Var]bool, lhs ast.Expr) *types.Var {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return nil
	}
	sel, ok := ast.Unparen(idx.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if ok && versioned[v] {
		return v
	}
	return nil
}
