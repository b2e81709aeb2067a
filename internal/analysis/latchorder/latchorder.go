// Package latchorder implements the segdifflint analyzer enforcing the
// engine's deterministic-ordering convention that walorder's WAL dataflow
// does not cover: durable writes must not be ordered by map iteration.
// Ranging over a map and flushing or syncing inside the body (directly or
// through a callee that walorder's summaries say writes durably) makes
// the on-disk write order nondeterministic across runs, which the
// crash-recovery tests rely on being stable. Iterate a sorted slice
// instead (the engine's sortedTableNames / pager sortByID convention).
//
// The analyzer shares walorder's module facts: the flush-primitive table
// and the transitive WritesFile summaries.
package latchorder

import (
	"go/ast"
	"go/types"

	"segdiff/internal/analysis"
	"segdiff/internal/analysis/callgraph"
	"segdiff/internal/analysis/walorder"
)

// Analyzer is the latchorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name:        "latchorder",
	Doc:         "durable writes are not ordered by map iteration",
	Run:         run,
	ModuleFacts: walorder.ModuleFacts,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		checkMapFlush(pass, f)
	}
	return nil
}

// checkMapFlush reports flush primitives (or calls into functions that
// write durably per walorder's summaries) inside a range over a map.
func checkMapFlush(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			flushes := walorder.IsFlushPrimitive(pass.Info, call)
			if !flushes {
				if fn := callgraph.Callee(pass.Info, call); fn != nil {
					flushes = walorder.WritesDurably(pass.ModuleFacts, fn)
				}
			}
			if flushes {
				pass.Reportf(call.Pos(),
					"durable write ordered by map iteration: write order becomes nondeterministic; iterate a sorted slice of keys instead")
			}
			return true
		})
		return true
	})
}
