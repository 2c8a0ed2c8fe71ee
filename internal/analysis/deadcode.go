package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadCode reports every module function that no entry point reaches.
// The repo's behaviour is what its commands, examples and benchmark
// run; a function none of them reach is code with no behaviour, and
// without a gate such code only accumulates.
//
// Reachability runs over the module call graph (interface dispatch
// resolved through the implements-sets) plus function-value edges: a
// function or method value taken inside a body is an edge from that
// body. The roots come from the program, never from configuration:
//
//   - every main and init function;
//   - the exported functions and methods of the module-root package
//     (the library facade);
//   - every function a package-level initializer calls or references;
//   - every method that implements a non-module interface, since the
//     standard library calls those for us (String, Error,
//     sort.Interface, types.Importer, ...).
//
// Findings do not depend on the packages pervalint is asked to check:
// the roots always come from every package the loader discovers. The
// graph the other analyzers share is left as the requested load built
// it; when discovery loads packages beyond it, deadcode builds its own.
//
// A deliberate keep — a paper model, a test oracle, a test hook in
// another package — carries //lint:allow deadcode(reason) on its
// declaration. A kept function keeps what it calls: the allow makes it
// a root for everything below it, so only the kept declaration itself
// needs the annotation.
var DeadCode = &Analyzer{
	Name: "deadcode",
	Doc:  "report module functions unreachable from every main, init, root-package export, function value and stdlib-interface method",
	Run:  runDeadCode,
}

// deadResult is the memoized module-wide answer.
type deadResult struct {
	live map[*types.Func]bool // reached from a root or a kept function
	kept map[*types.Func]bool // unreachable, but allowed on its declaration
	err  error                // a discovered package failed to load
}

func runDeadCode(p *Pass) {
	if p.Mod == nil {
		return
	}
	dr := p.Mod.deadCode()
	if dr.err != nil {
		if len(p.Files) > 0 {
			p.Reportf(p.Files[0].Name.Pos(), "deadcode: %v", dr.err)
		}
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if fn = canonFunc(fn); dr.live[fn] && !dr.kept[fn] {
				continue
			}
			p.Reportf(fd.Pos(), "%s is unreachable from every main, init and root-package export: delete it, or keep it with //lint:allow deadcode(reason) on its declaration", FuncDisplay(fn))
		}
	}
}

func (m *Module) deadCode() *deadResult {
	if m.dead != nil {
		return m.dead
	}
	dr := &deadResult{}
	m.dead = dr
	l := m.Loader
	paths, err := l.Discover()
	if err != nil {
		dr.err = err
		return dr
	}
	for _, path := range paths {
		if _, err := l.Load(path); err != nil {
			dr.err = err
			return dr
		}
	}
	pkgs := l.Packages()
	g := m.Graph
	if g == nil || len(g.Pkgs) != len(pkgs) {
		g = BuildCallGraph(l.Fset, pkgs)
	}

	var roots []*types.Func
	valueRefs := make(map[*types.Func][]*types.Func)
	for _, pkg := range pkgs {
		isMain := pkg.Types.Name() == "main"
		isFacade := pkg.ImportPath == l.Module
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					fn = canonFunc(fn)
					name := d.Name.Name
					switch {
					case d.Recv == nil && (name == "init" || isMain && name == "main"):
						roots = append(roots, fn)
					case isFacade && ast.IsExported(name) && (d.Recv == nil || ast.IsExported(recvBaseName(d))):
						roots = append(roots, fn)
					}
					if d.Body != nil {
						valueRefs[fn] = funcRefs(pkg.Info, d.Body, calledIdents(d.Body))
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						// Initializers run at program start: everything
						// they call or reference is live.
						roots = append(roots, funcRefs(pkg.Info, d, nil)...)
					}
				}
			}
		}
	}
	roots = append(roots, stdlibIfaceMethods(pkgs, l.Module)...)

	live := make(map[*types.Func]bool)
	reach := func(stack []*types.Func) {
		for len(stack) > 0 {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if live[fn] {
				continue
			}
			live[fn] = true
			for _, e := range g.Callees[fn] {
				stack = append(stack, e.Callee)
			}
			stack = append(stack, valueRefs[fn]...)
		}
	}
	reach(roots)
	dr.kept = make(map[*types.Func]bool)
	var kept []*types.Func
	for fn, fd := range g.DeclOf {
		if !live[fn] && m.hasAllow(g.PkgOf[fn], "deadcode", fd.Pos()) {
			dr.kept[fn] = true
			kept = append(kept, fn)
		}
	}
	reach(kept)
	dr.live = live
	return dr
}

// hasAllow reports whether an allow for analyzer covers pos in pkg,
// without marking it used: the finding it would suppress is reported
// (and suppressed) later, which is what marks it.
func (m *Module) hasAllow(pkg *Package, analyzer string, pos token.Pos) bool {
	idx, _ := m.allowsFor(pkg)
	p := m.Loader.Fset.Position(pos)
	for _, e := range idx.byLine[p.Filename][p.Line] {
		if e.analyzer == analyzer {
			return true
		}
	}
	return false
}

// calledIdents returns the identifiers in n that name a call's callee;
// every other mention of a function is a value: a function value, method
// value or method expression.
func calledIdents(n ast.Node) map[*ast.Ident]bool {
	called := make(map[*ast.Ident]bool)
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id := funcIdent(call.Fun); id != nil {
				called[id] = true
			}
		}
		return true
	})
	return called
}

// funcIdent returns the identifier naming a call's callee, seeing
// through parentheses, selectors and generic instantiation.
func funcIdent(fun ast.Expr) *ast.Ident {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	case *ast.IndexExpr:
		return funcIdent(f.X)
	case *ast.IndexListExpr:
		return funcIdent(f.X)
	}
	return nil
}

// funcRefs returns every function n mentions, except through the
// identifiers in skip.
func funcRefs(info *types.Info, n ast.Node, skip map[*ast.Ident]bool) []*types.Func {
	var out []*types.Func
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !skip[id] {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				out = append(out, canonFunc(fn))
			}
		}
		return true
	})
	return out
}

// stdlibIfaceMethods returns the module methods that implement an
// exported interface of a non-module package the module imports
// (transitively), plus the universe error. The standard library calls
// these through its own interfaces, which the call graph never sees.
func stdlibIfaceMethods(pkgs []*Package, module string) []*types.Func {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, imp := range tp.Imports() {
			visit(imp)
		}
		path := tp.Path()
		if path == module || strings.HasPrefix(path, module+"/") || strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/") {
			return
		}
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				ifaces = append(ifaces, iface)
			}
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}

	var out []*types.Func
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
				continue
			}
			// types.Implements is unspecified on uninstantiated generic
			// types; the module declares no stdlib-interface methods on one.
			if n := namedType(tn.Type()); n != nil && n.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			mset := types.NewMethodSet(ptr)
			if mset.Len() == 0 {
				continue
			}
			for _, iface := range ifaces {
				if !types.Implements(ptr, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					if sel := mset.Lookup(iface.Method(i).Pkg(), iface.Method(i).Name()); sel != nil {
						out = append(out, canonFunc(sel.Obj().(*types.Func)))
					}
				}
			}
		}
	}
	return out
}
