// Package atomicmix implements the segdifflint analyzer forbidding mixed
// atomic and plain access to the same memory.
//
// Atomic memory comes in two idioms: fields of the sync/atomic value types
// (the WAL's commit and fsync counters, the obs registry's counters and
// gauges, sqlmini's zone-skip and catalog counters, core's published
// snapshot pointer, the server's request sequence) and plain integer
// fields that every accessor touches through the sync/atomic functions
// (no field of the module uses this idiom today; rule 1 keeps it total if
// one does). Both idioms are only race-free when they are total: one
// plain load or store of a word that other goroutines update atomically is
// a data race, and one that the race detector frequently cannot see
// because the plain access sits on a cold path (a reset, a snapshot, a
// struct-literal overwrite).
//
// The analyzer computes a module-wide fact set — every struct field whose
// address is ever passed to a sync/atomic function — and then reports, in
// any package of the module:
//
//  1. a plain read or write of such a field (the only sanctioned use is
//     `&x.f` as a sync/atomic call argument);
//  2. an assignment that overwrites a whole struct value containing such a
//     field, or containing a field of a sync/atomic value type — the
//     assignment stores over the atomic cell with plain MOVs
//     (`s.stats = counters{}` over a struct of atomic cells is this bug);
//  3. a value copy of a sync/atomic-typed field (reading `l.commits` other
//     than to call its methods or take its address).
//
// Cross-function and cross-package mixes are the point: the atomic uses
// that make a field "atomic" are collected from the whole module, so a
// package that plainly reads an exported counter another package updates
// atomically is caught.
package atomicmix

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"segdiff/internal/analysis"
)

// Analyzer is the atomicmix analyzer.
var Analyzer = &analysis.Analyzer{
	Name:        "atomicmix",
	Doc:         "forbid plain access to fields that are accessed with sync/atomic anywhere in the module",
	Run:         run,
	ModuleFacts: moduleFacts,
}

// facts is the module-wide fact set.
type facts struct {
	// atomicFields maps a struct field to one sync/atomic call site that
	// takes its address (for the diagnostic message).
	atomicFields map[*types.Var]token.Pos
}

// moduleFacts collects every field whose address reaches a sync/atomic
// function anywhere in the module.
func moduleFacts(mod *analysis.Module) (any, error) {
	fs := &facts{atomicFields: map[*types.Var]token.Pos{}}
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isAtomicCall(pkg.Info, call) {
					return true
				}
				for _, arg := range call.Args {
					if fld := addressedField(pkg.Info, arg); fld != nil {
						if _, seen := fs.atomicFields[fld]; !seen {
							fs.atomicFields[fld] = call.Pos()
						}
					}
				}
				return true
			})
		}
	}
	return fs, nil
}

// isAtomicCall reports whether call invokes a function of sync/atomic
// (the free functions; method calls on atomic value types go through
// Selections and are not package-qualified).
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// addressedField returns the struct field object when arg has the form
// `&expr.field`, and nil otherwise.
func addressedField(info *types.Info, arg ast.Expr) *types.Var {
	un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil
	}
	sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	fld, _ := s.Obj().(*types.Var)
	return fld
}

// isAtomicValueType reports whether t is one of the sync/atomic value
// types (atomic.Int32, atomic.Bool, atomic.Uint64, ...).
func isAtomicValueType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// containsAtomic reports whether overwriting a value of type t with a
// plain store covers memory that is elsewhere accessed atomically: t is
// (or directly embeds, through structs and arrays — not through
// pointers, slices, or maps, which a store does not traverse) a
// fact-atomic field's struct or an atomic value type.
func containsAtomic(fs *facts, t types.Type, depth int) (string, bool) {
	if depth > 10 {
		return "", false
	}
	if isAtomicValueType(t) {
		return t.(*types.Named).Obj().Name(), true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			fld := u.Field(i)
			if _, ok := fs.atomicFields[fld]; ok {
				return fld.Name(), true
			}
			if name, ok := containsAtomic(fs, fld.Type(), depth+1); ok {
				return fld.Name() + "." + name, true
			}
		}
	case *types.Array:
		return containsAtomic(fs, u.Elem(), depth+1)
	}
	return "", false
}

func run(pass *analysis.Pass) error {
	fs, ok := pass.ModuleFacts.(*facts)
	if !ok {
		return fmt.Errorf("atomicmix: missing module facts")
	}
	for _, f := range pass.Files {
		checkFile(pass, fs, f)
	}
	return nil
}

func checkFile(pass *analysis.Pass, fs *facts, f *ast.File) {
	// Walk with an explicit ancestor stack so a selector use can be
	// classified by its context (atomic call argument, method receiver,
	// address-of, plain).
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN {
				for _, lhs := range n.Lhs {
					checkStructOverwrite(pass, fs, lhs)
				}
			}
		case *ast.SelectorExpr:
			checkSelector(pass, fs, stack, n)
		}
		return true
	})
}

// checkStructOverwrite reports a plain `=` whose left-hand side is a
// struct (or array-of-struct) value containing atomic memory.
func checkStructOverwrite(pass *analysis.Pass, fs *facts, lhs ast.Expr) {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	tv, ok := pass.Info.Types[lhs]
	if !ok {
		return
	}
	// A direct assignment to the atomic field itself is reported by
	// checkSelector at the selector; only flag composite overwrites here.
	if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
		if s, ok := pass.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if fld, _ := s.Obj().(*types.Var); fld != nil {
				if _, atomic := fs.atomicFields[fld]; atomic {
					return
				}
			}
		}
	}
	if _, isStruct := tv.Type.Underlying().(*types.Struct); !isStruct {
		if _, isArray := tv.Type.Underlying().(*types.Array); !isArray {
			return
		}
	}
	if path, ok := containsAtomic(fs, tv.Type, 0); ok {
		pass.Reportf(lhs.Pos(),
			"plain struct assignment overwrites atomic field %s; store its fields atomically instead", path)
	}
}

// checkSelector classifies one field selection against the atomic fact
// set. stack[len(stack)-1] is sel.
func checkSelector(pass *analysis.Pass, fs *facts, stack []ast.Node, sel *ast.SelectorExpr) {
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	fld, _ := s.Obj().(*types.Var)
	if fld == nil {
		return
	}
	if pos, isAtomic := fs.atomicFields[fld]; isAtomic {
		if sanctionedPlainFieldUse(pass.Info, stack) {
			return
		}
		pass.Reportf(sel.Pos(),
			"plain access to field %s, which is accessed with sync/atomic (e.g. at %s); this is a data race",
			fld.Name(), pass.Fset.Position(pos))
		return
	}
	if isAtomicValueType(fld.Type()) && !sanctionedAtomicTypeUse(stack) {
		pass.Reportf(sel.Pos(),
			"value copy of %s field %s bypasses its atomicity; call its methods or take its address",
			fld.Type().(*types.Named).Obj().Name(), fld.Name())
	}
}

// parentOf returns the ancestor i levels above the node on top of stack.
func parentOf(stack []ast.Node, i int) ast.Node {
	if len(stack) <= i {
		return nil
	}
	return stack[len(stack)-1-i]
}

// sanctionedPlainFieldUse reports whether the selector on top of stack is
// used as `&x.f` passed directly to a sync/atomic function.
func sanctionedPlainFieldUse(info *types.Info, stack []ast.Node) bool {
	un, ok := parentOf(stack, 1).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return false
	}
	call, ok := parentOf(stack, 2).(*ast.CallExpr)
	return ok && isAtomicCall(info, call)
}

// sanctionedAtomicTypeUse reports whether the atomic-typed field selection
// on top of stack is a method-call receiver (fr.pins.Add(1)) or has its
// address taken (&fr.pins).
func sanctionedAtomicTypeUse(stack []ast.Node) bool {
	switch p := parentOf(stack, 1).(type) {
	case *ast.SelectorExpr:
		// fr.pins.M — selecting a method (atomic value types export no
		// fields, so any further selection is a method).
		return true
	case *ast.UnaryExpr:
		return p.Op == token.AND
	}
	return false
}
