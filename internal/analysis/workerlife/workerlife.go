// Package workerlife implements the segdifflint analyzer checking that
// every goroutine the engine starts has a reachable join/stop path, and
// that locally created channels with senders have receivers.
//
// The engine's goroutines follow two shapes: bounded worker pools
// (`wg.Add(1); go func() { defer wg.Done(); for i := range jobs {...} }()`
// with a `close(jobs)` and `wg.Wait()` in the spawning function — the
// query engine's UNION fan-out and index-apply pool, the collection's
// per-sensor fan-out) and serve loops that hand their result back on a
// buffered channel the owner receives from at shutdown
// (`go func() { s.served <- s.hsrv.Serve(ln) }()`). A goroutine outside
// these shapes leaks: it pins its stack and whatever it captured — for a
// scan worker, pinned pages of an open store — for the process lifetime,
// and a send to it after its channels are abandoned blocks forever.
//
// For every `go` statement whose function body is resolvable (a literal,
// or a declared function/method found through the module call graph) the
// analyzer reports:
//
//  1. a body whose CFG exit is unreachable — the goroutine can never
//     return (for {} with no breaking path, a select with no returning
//     arm);
//  2. a body that exits only by ranging over a channel that nothing in
//     the module closes;
//  3. a body whose stop arm receives from a channel that nothing in the
//     module closes or sends to;
//  4. a wg.Done (deferred or direct) on a WaitGroup that nothing in the
//     module Waits on.
//
// Independent of go statements it also reports sends on channels that
// are created locally, never escape the function, and have no receive
// anywhere in it — a send with no guaranteed receiver.
//
// Channel and WaitGroup identity is by types.Object, so struct fields
// (p.pfStop) match across functions and packages, and locals match
// within their function including its literals.
package workerlife

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

// Analyzer is the workerlife analyzer.
var Analyzer = &analysis.Analyzer{
	Name:        "workerlife",
	Doc:         "check that every started goroutine has a reachable join/stop path and every local channel send a receiver",
	Run:         run,
	ModuleFacts: moduleFacts,
}

// facts is the module-wide fact set.
type facts struct {
	graph *callgraph.Graph
	// closed holds channel objects ever passed to close().
	closed map[types.Object]bool
	// sent holds channel objects ever sent to.
	sent map[types.Object]bool
	// waited holds WaitGroup objects with a .Wait() call.
	waited map[types.Object]bool
}

func moduleFacts(mod *analysis.Module) (any, error) {
	fs := &facts{
		graph:  callgraph.Build(mod),
		closed: map[types.Object]bool{},
		sent:   map[types.Object]bool{},
		waited: map[types.Object]bool{},
	}
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" &&
						pkg.Info.Uses[id] == types.Universe.Lookup("close") && len(n.Args) == 1 {
						if o := chanObj(pkg.Info, n.Args[0]); o != nil {
							fs.closed[o] = true
						}
					}
					if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
						if o := waitGroupObj(pkg.Info, sel.X); o != nil {
							fs.waited[o] = true
						}
					}
				case *ast.SendStmt:
					if o := chanObj(pkg.Info, n.Chan); o != nil {
						fs.sent[o] = true
					}
				}
				return true
			})
		}
	}
	return fs, nil
}

// chanObj resolves expr to the object of a channel-typed variable or
// field: an identifier or a field selection. Other shapes return nil.
func chanObj(info *types.Info, expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		o := info.Uses[e]
		if o == nil {
			o = info.Defs[e]
		}
		if o != nil && isChan(o.Type()) {
			return o
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal && isChan(s.Obj().Type()) {
			return s.Obj()
		}
	}
	return nil
}

func isChan(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// waitGroupObj resolves expr to the object of a sync.WaitGroup variable
// or field.
func waitGroupObj(info *types.Info, expr ast.Expr) types.Object {
	var o types.Object
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		o = info.Uses[e]
		if o == nil {
			o = info.Defs[e]
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal {
			o = s.Obj()
		}
	}
	if o == nil || !isWaitGroup(o.Type()) {
		return nil
	}
	return o
}

func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

func run(pass *analysis.Pass) error {
	fs, ok := pass.ModuleFacts.(*facts)
	if !ok {
		return fmt.Errorf("workerlife: missing module facts")
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				checkGo(pass, fs, g)
			}
			return true
		})
		analysis.FuncBodies(f, func(fd *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
			if lit == nil { // literals are scanned as part of their declaring function
				checkOrphanSends(pass, fd)
			}
		})
	}
	return nil
}

// goBody resolves the function body a go statement starts: a literal's
// body, or the declaration of a statically resolved function/method. For
// a declared function it also returns a substitution from channel-typed
// parameter objects to the channel objects the go statement passes, so
// the body's exit conditions are checked against the caller's channels.
func goBody(pass *analysis.Pass, fs *facts, g *ast.GoStmt) (*ast.BlockStmt, map[types.Object]types.Object) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body, nil
	}
	fn := callgraph.Callee(pass.Info, g.Call)
	if fn == nil {
		return nil, nil
	}
	n := fs.graph.NodeOf(fn)
	if n == nil {
		return nil, nil
	}
	// Every channel parameter gets a subst entry; the value is nil when
	// the argument is not a plain channel variable, which keeps the
	// checks silent rather than judging the callee's parameter object.
	subst := map[types.Object]types.Object{}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil {
		mappable := !sig.Variadic() && sig.Params().Len() == len(g.Call.Args)
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			if !isChan(p.Type()) {
				continue
			}
			subst[p] = nil
			if mappable {
				subst[p] = chanObj(pass.Info, g.Call.Args[i])
			}
		}
	}
	return n.Decl.Body, subst
}

func checkGo(pass *analysis.Pass, fs *facts, g *ast.GoStmt) {
	body, subst := goBody(pass, fs, g)
	if body == nil {
		return // dynamic call: cannot see the body, stay silent
	}
	graph := cfg.New(body)
	if graph.HasGoto {
		return
	}
	if !dataflow.ExitReachable(graph) {
		pass.Reportf(g.Pos(), "goroutine can never exit: no return, break, or stopping select arm reaches the end of its body")
		return
	}
	// The body can exit structurally; verify the channels its exits
	// depend on are actually signalled somewhere in the module. A
	// parameter channel is judged through the argument this go statement
	// actually passes; an unmappable channel parameter stays silent.
	resolve := func(o types.Object) types.Object {
		if mapped, ok := subst[o]; ok {
			return mapped
		}
		return o
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[n.X]; ok && isChan(tv.Type) {
				if o := resolve(chanObj(pass.Info, n.X)); o != nil && !fs.closed[o] {
					pass.Reportf(g.Pos(),
						"goroutine exits only when channel %q is closed, but nothing in the module closes it", o.Name())
				}
			}
		case *ast.CommClause:
			if stopsGoroutine(n.Body) {
				if o := resolve(recvChan(pass.Info, n.Comm)); o != nil && !fs.closed[o] && !fs.sent[o] {
					pass.Reportf(g.Pos(),
						"goroutine's stop arm receives from channel %q, but nothing in the module closes or sends to it", o.Name())
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if o := waitGroupObj(pass.Info, sel.X); o != nil && !fs.waited[o] {
					pass.Reportf(g.Pos(),
						"goroutine calls %s.Done, but nothing in the module calls Wait on that WaitGroup", o.Name())
				}
			}
		}
		return true
	})
}

// recvChan extracts the channel object of a comm clause's receive
// (`<-ch` or `v := <-ch`), or nil for sends and defaults.
func recvChan(info *types.Info, comm ast.Stmt) types.Object {
	var expr ast.Expr
	switch c := comm.(type) {
	case *ast.ExprStmt:
		expr = c.X
	case *ast.AssignStmt:
		if len(c.Rhs) == 1 {
			expr = c.Rhs[0]
		}
	}
	un, ok := ast.Unparen(expr).(*ast.UnaryExpr)
	if !ok || un.Op != token.ARROW {
		return nil
	}
	return chanObj(info, un.X)
}

// stopsGoroutine reports whether a select arm's body terminates the
// goroutine: it contains a return, or an unlabeled/labeled break out of
// the arm (which the CFG already credits — break alone exits only the
// select, so it counts just when a return follows structurally; being
// permissive here only makes check 3 apply to fewer arms, never report
// more).
func stopsGoroutine(body []ast.Stmt) bool {
	for _, st := range body {
		if _, ok := st.(*ast.ReturnStmt); ok {
			return true
		}
		if br, ok := st.(*ast.BranchStmt); ok && br.Label != nil {
			return true // breaking a labeled outer loop ends the worker loop
		}
	}
	return false
}

// checkOrphanSends reports sends on channels that are created in fd,
// never escape it, and are received nowhere in it (including literals).
func checkOrphanSends(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Locals made by `make(chan ...)` in this function.
	made := map[types.Object]ast.Node{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(as.Lhs) <= i {
				continue
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "make" || pass.Info.Uses[id] != types.Universe.Lookup("make") {
				continue
			}
			lhs, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if o := pass.Info.Defs[lhs]; o != nil && isChan(o.Type()) {
				made[o] = as
			}
		}
		return true
	})
	if len(made) == 0 {
		return
	}

	escaped := map[types.Object]bool{}
	received := map[types.Object]bool{}
	sendPos := map[types.Object]ast.Node{}
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		o := pass.Info.Uses[id]
		if o == nil {
			if o = pass.Info.Defs[id]; o == nil {
				return true
			}
		}
		if _, tracked := made[o]; !tracked {
			return true
		}
		switch p := parentOf(stack, 1).(type) {
		case *ast.SendStmt:
			if p.Chan == id {
				if sendPos[o] == nil {
					sendPos[o] = p
				}
			} else {
				escaped[o] = true // the channel value itself is sent somewhere
			}
		case *ast.UnaryExpr:
			if p.Op == token.ARROW {
				received[o] = true
			} else {
				escaped[o] = true
			}
		case *ast.RangeStmt:
			if p.X == id {
				received[o] = true
			}
		case *ast.CallExpr:
			// close(ch) keeps the obligation local; any other call takes
			// the channel out of our sight.
			if fun, ok := ast.Unparen(p.Fun).(*ast.Ident); ok && fun.Name == "close" &&
				pass.Info.Uses[fun] == types.Universe.Lookup("close") {
				break
			}
			escaped[o] = true
		case *ast.AssignStmt, *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.IndexExpr:
			// Reassignment, return, or storage: tracking ends.
			if as, ok := p.(*ast.AssignStmt); ok && len(made) > 0 {
				// The defining `ch := make(...)` itself is not an escape.
				if made[o] == ast.Node(as) {
					break
				}
			}
			escaped[o] = true
		}
		return true
	})
	for o, at := range sendPos {
		if !escaped[o] && !received[o] {
			pass.Reportf(at.Pos(),
				"send on channel %q, which is never received anywhere in %s and does not escape it", o.Name(), fd.Name.Name)
		}
	}
}

func parentOf(stack []ast.Node, i int) ast.Node {
	if len(stack) <= i {
		return nil
	}
	return stack[len(stack)-1-i]
}
