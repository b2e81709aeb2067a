// Package walorder implements the segdifflint analyzer enforcing the
// engine's write-ahead ordering conventions.
//
// The engine runs a no-steal buffer pool: a page marked dirty may only
// reach the data file after its after-image has been appended to the WAL
// (Pager.LogDirty staging into Log.Stage/Log.Commit). A flush that
// overtakes the WAL append breaks crash recovery — after a crash the data
// file holds a page the log knows nothing about, and replay cannot undo
// or redo it. The analyzer tracks a may-dirty dataflow fact ("a page has
// been marked dirty and not yet WAL-appended") through each function's
// CFG and across calls via bottom-up summaries, and reports any flush
// primitive (Pager.Flush, Pager.Sync, Pager.Close)
// reachable while the fact holds — whether the mark, the append, and the
// flush sit in the same function or three functions apart.
//
// The companion latchorder analyzer enforces the engine's other ordering
// convention (durable writes in sorted, not map, order); walorder exports
// its WritesFile summaries for it.
package walorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"segdiff/internal/analysis"
	"segdiff/internal/analysis/callgraph"
	"segdiff/internal/analysis/cfg"
	"segdiff/internal/analysis/dataflow"
)

// Analyzer is the walorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name:        "walorder",
	Doc:         "dirty pages must be WAL-appended before any path flushes them (no-steal rule), tracked across calls",
	Run:         run,
	ModuleFacts: moduleFacts,
}

// summary is the bottom-up dataflow fact for one function: how it
// transforms the may-dirty state and whether it violates the ordering
// internally, for each entry state.
type summary struct {
	OutClean   bool // exit state may-dirty when entered clean
	OutDirty   bool // exit state may-dirty when entered may-dirty
	ViolClean  bool // flushes past an unlogged mark even when entered clean
	ViolDirty  bool // flushes past an unlogged mark when entered may-dirty
	WritesFile bool // performs a durable write (flush primitive) anywhere
}

// facts is the module-wide fact set.
type facts struct {
	graph     *callgraph.Graph
	summaries map[*types.Func]summary
}

// primitive classification.
type primKind int

const (
	primNone primKind = iota
	primMark
	primAppend
	primFlush
)

// prims maps receiver-type-name.method to its role in the ordering. The
// names match the engine's pager and wal APIs; fixtures declare types
// with the same names.
var prims = map[[2]string]primKind{
	{"Page", "MarkDirty"}: primMark,
	{"Pager", "Allocate"}: primMark, // a fresh page is born dirty
	{"Pager", "LogDirty"}: primAppend,
	{"Log", "Stage"}:      primAppend,
	{"Log", "AppendPage"}: primAppend,
	{"Log", "Commit"}:     primAppend,
	{"Pager", "Flush"}:    primFlush,
	{"Pager", "Sync"}:     primFlush,
	{"Pager", "Close"}:    primFlush,
}

// classify returns the primitive role of a call, or primNone.
func classify(info *types.Info, call *ast.CallExpr) primKind {
	fn := analysis.MethodOf(info, call)
	if fn == nil {
		return primNone
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return primNone
	}
	return prims[[2]string{analysis.ReceiverTypeName(sig.Recv().Type()), fn.Name()}]
}

func moduleFacts(mod *analysis.Module) (any, error) {
	g := callgraph.Build(mod)
	fs := &facts{graph: g, summaries: map[*types.Func]summary{}}
	raw := dataflow.Summaries(g, func(n *callgraph.Node, get dataflow.Getter) any {
		getSum := func(fn *types.Func) (summary, bool) {
			s, ok := get(fn).(summary)
			return s, ok
		}
		clean := analyzeFn(n, getSum, false, nil)
		dirty := analyzeFn(n, getSum, true, nil)
		return summary{
			OutClean:   clean.out,
			OutDirty:   dirty.out,
			ViolClean:  clean.viol,
			ViolDirty:  dirty.viol,
			WritesFile: clean.writes,
		}
	})
	for fn, s := range raw {
		if sum, ok := s.(summary); ok {
			fs.summaries[fn] = sum
		}
	}
	return fs, nil
}

// getter looks a callee's summary up, false when unknown (external or
// unresolved callees are treated as no-ops).
type getter func(fn *types.Func) (summary, bool)

// fnResult is the outcome of walking one function under one entry state.
type fnResult struct {
	out    bool // may-dirty at exit
	viol   bool // a flush happened while may-dirty
	writes bool // any durable-write primitive or callee anywhere
}

// report receives a violation site during the reporting walk.
type reportFn func(pos token.Pos, callee *types.Func)

// analyzeFn runs the may-dirty dataflow over one function body with the
// given entry state. When report is non-nil, each flush-while-dirty site
// is passed to it (callee nil for a primitive flush, non-nil when the
// violation is inside a summarized callee entered dirty).
func analyzeFn(n *callgraph.Node, get getter, entry bool, report reportFn) fnResult {
	res := fnResult{out: entry}
	if n.Decl == nil || n.Decl.Body == nil {
		return res
	}
	g := cfg.New(n.Decl.Body)
	if g.HasGoto {
		return res
	}
	info := n.Pkg.Info

	// effect folds the calls syntactically inside one statement, in
	// source order, into the state; side flags accumulate in res.
	effect := func(state bool, s ast.Stmt, reporting bool) bool {
		for _, call := range callsIn(s) {
			switch classify(info, call) {
			case primMark:
				state = true
			case primAppend:
				state = false
			case primFlush:
				res.writes = true
				if state {
					res.viol = true
					if reporting && report != nil {
						report(call.Pos(), nil)
					}
				}
				state = false // the flush wrote everything out
			default:
				fn := callgraph.Callee(info, call)
				if fn == nil {
					continue
				}
				sum, ok := get(fn)
				if !ok {
					continue
				}
				res.writes = res.writes || sum.WritesFile
				if state && sum.ViolDirty {
					res.viol = true
					// Report at the call site only when the callee is
					// clean on its own: otherwise the callee's defining
					// function already carries the report.
					if reporting && report != nil && !sum.ViolClean {
						report(call.Pos(), fn)
					}
				}
				if state {
					state = sum.OutDirty
				} else {
					state = sum.OutClean
				}
			}
		}
		return state
	}

	in := dataflow.Forward(g, entry,
		func(a, b bool) bool { return a || b },
		func(state bool, s ast.Stmt) bool { return effect(state, s, false) })

	// Deterministic reporting walk over the reachable blocks, replaying
	// each block from its joined in-state.
	res.viol = false
	for _, b := range g.Blocks {
		state, reachable := in[b]
		if !reachable {
			continue
		}
		for _, s := range b.Nodes {
			state = effect(state, s, true)
		}
	}
	res.out = in[g.Exit]
	return res
}

// callsIn returns the call expressions syntactically inside s, in source
// order. Function literals are treated as executing inline — the engine
// only uses literals as immediately-invoked staging closures on the
// commit path — but a RangeStmt node (which the CFG stores whole in its
// loop-head block) contributes only its range expression, since its body
// statements live in other blocks.
func callsIn(s ast.Stmt) []*ast.CallExpr {
	var root ast.Node = s
	if rs, ok := s.(*ast.RangeStmt); ok {
		if rs.X == nil {
			return nil
		}
		root = rs.X
	}
	var out []*ast.CallExpr
	ast.Inspect(root, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			out = append(out, call)
		}
		return true
	})
	return out
}

func run(pass *analysis.Pass) error {
	fs, ok := pass.ModuleFacts.(*facts)
	if !ok {
		return fmt.Errorf("walorder: missing module facts")
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkOrdering(pass, fs, fd)
		}
	}
	return nil
}

// WritesDurably reports whether fn's summary says it performs a durable
// write (a flush primitive, directly or transitively). The latchorder
// analyzer uses this to spot durable writes ordered by map iteration.
func WritesDurably(moduleFacts any, fn *types.Func) bool {
	fs, ok := moduleFacts.(*facts)
	if !ok || fn == nil {
		return false
	}
	return fs.summaries[fn].WritesFile
}

// IsFlushPrimitive reports whether the call is one of the engine's flush
// primitives (Pager.Flush/Sync/Close).
func IsFlushPrimitive(info *types.Info, call *ast.CallExpr) bool {
	return classify(info, call) == primFlush
}

// checkOrdering reports flush-while-dirty sites in fd, entered clean.
func checkOrdering(pass *analysis.Pass, fs *facts, fd *ast.FuncDecl) {
	fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	n := fs.graph.NodeOf(fn)
	if n == nil {
		return
	}
	get := func(f *types.Func) (summary, bool) {
		s, ok := fs.summaries[f]
		return s, ok
	}
	analyzeFn(n, get, false, func(pos token.Pos, callee *types.Func) {
		if callee != nil {
			pass.Reportf(pos,
				"call to %s flushes pages, but a page marked dirty on this path has not been WAL-appended (no-steal policy: append before flushing)",
				callee.Name())
			return
		}
		pass.Reportf(pos,
			"flush reachable while a page is marked dirty but not WAL-appended (no-steal policy: append before flushing)")
	})
}

// ModuleFacts computes the walorder fact set for mod; the latchorder
// analyzer reuses it as its own ModuleFacts hook.
func ModuleFacts(mod *analysis.Module) (any, error) { return moduleFacts(mod) }
