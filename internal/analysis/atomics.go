package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Atomics catches the exact shape of PR 4's mailbox-depth gauge race:
// a struct field reached both through sync/atomic operations and
// through plain loads or stores. Once any access to a field goes
// through atomic.AddInt64/LoadInt64/..., every access must — a plain
// write tears the atomicity and a plain read races it (the old gauge
// was Set from every delivery goroutine, so its value was whichever
// delivery ran last). Fields of the atomic.Int64-style wrapper types
// cannot be accessed non-atomically and need no checking; this
// analyzer exists for the function-style mixed pattern.
//
// The atomic-field inventory is module-wide: a field atomically
// updated in the package that owns it and plainly read from a sibling
// package (the observable shape of an exported counter field) is the
// same race, so collection runs once over every loaded package and
// each pass checks its own accesses against the shared set.
var Atomics = &Analyzer{
	Name: "atomics",
	Doc:  "fields accessed via sync/atomic functions must never be read or written plainly",
	Run:  runAtomics,
}

// atomicFuncPrefixes are the sync/atomic operation families that take a
// field address.
var atomicFuncPrefixes = []string{"Add", "And", "CompareAndSwap", "Load", "Or", "Store", "Swap"}

func isAtomicOp(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	for _, prefix := range atomicFuncPrefixes {
		if strings.HasPrefix(fn.Name(), prefix) {
			return true
		}
	}
	return false
}

// collectAtomicFields records, into out, every struct field whose
// address feeds a sync/atomic operation in files (resolved via info).
func collectAtomicFields(info *types.Info, files []*ast.File, out map[types.Object]string) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if !isAtomicOp(fn) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					if _, seen := out[s.Obj()]; !seen {
						out[s.Obj()] = "atomic." + fn.Name()
					}
				}
			}
			return true
		})
	}
}

// moduleAtomicFields computes (memoized) the atomic-field inventory
// over every package the call graph covers.
func (m *Module) moduleAtomicFields() map[types.Object]string {
	if m.atomicFields != nil {
		return m.atomicFields
	}
	out := make(map[types.Object]string)
	m.atomicFields = out
	for _, pkg := range m.Graph.Pkgs {
		collectAtomicFields(pkg.Info, pkg.Files, out)
	}
	return out
}

func runAtomics(p *Pass) {
	// Pass 1: the module-wide atomic-field inventory (fall back to
	// package-local collection when no whole-program context exists).
	var atomicFields map[types.Object]string
	if p.Mod != nil {
		atomicFields = p.Mod.moduleAtomicFields()
	} else {
		atomicFields = make(map[types.Object]string)
		collectAtomicFields(p.Info, p.Files, atomicFields)
	}
	if len(atomicFields) == 0 {
		return
	}
	// Pass 2: every other access to those fields must also be an
	// &-argument of an atomic operation.
	for _, f := range p.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := p.Info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return true
			}
			via, isAtomic := atomicFields[s.Obj()]
			if !isAtomic {
				return true
			}
			field := s.Obj().Name()
			switch parent := stack[len(stack)-1].(type) {
			case *ast.UnaryExpr:
				if parent.Op == token.AND && addressFeedsAtomic(p, stack) {
					return true
				}
				p.Reportf(sel.Pos(), "address of field %s (accessed via %s elsewhere) escapes outside sync/atomic: all access must go through sync/atomic", field, via)
			case *ast.AssignStmt:
				if exprIsAssigned(parent, sel) {
					p.Reportf(sel.Pos(), "plain write to field %s, which is accessed via %s elsewhere in the module: mixed atomic/non-atomic access is a data race", field, via)
				} else {
					p.Reportf(sel.Pos(), "plain read of field %s, which is accessed via %s elsewhere in the module: use the matching atomic load", field, via)
				}
			case *ast.IncDecStmt:
				p.Reportf(sel.Pos(), "plain %s of field %s, which is accessed via %s elsewhere in the module: use %s", parent.Tok, field, via, via)
			default:
				p.Reportf(sel.Pos(), "plain read of field %s, which is accessed via %s elsewhere in the module: use the matching atomic load", field, via)
			}
			return true
		})
	}
}

// addressFeedsAtomic reports whether the &field expression whose
// ancestors are stack is a direct argument of a sync/atomic call:
// stack ends [..., CallExpr, UnaryExpr] (the selector is the UnaryExpr
// operand).
func addressFeedsAtomic(p *Pass, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	if !ok {
		return false
	}
	return isAtomicOp(calleeFunc(p.Info, call))
}

// exprIsAssigned reports whether sel appears on the left-hand side of
// the assignment.
func exprIsAssigned(as *ast.AssignStmt, sel ast.Expr) bool {
	for _, l := range as.Lhs {
		if ast.Unparen(l) == sel {
			return true
		}
	}
	return false
}
