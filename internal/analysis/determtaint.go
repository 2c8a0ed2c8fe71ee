package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// DetermTaint is the interprocedural half of the determinism contract:
// the package-local determinism analyzer catches time.Now written
// directly into a deterministic package, but it is structurally blind
// to a helper one package over — core calling a network utility that
// ranges a map, sim calling a stats helper that reads the wall clock.
// DetermTaint seeds taint at every nondeterministic construct anywhere
// in the module (wall-clock reads, global math/rand, environment
// reads, unsorted map ranges — the same inventory as determinism),
// propagates it backward over the module call graph (static edges plus
// interface dispatch resolved through the implements-sets), and flags
// every call from a deterministic package to a tainted function
// declared outside the deterministic boundary.
//
// Suppression composes with the package-local analyzer: a seed whose
// line carries //lint:allow determinism (inside the boundary) or
// //lint:allow determtaint (anywhere) does not taint, so the sanctioned
// wall-clock sites do not poison their callers. A surviving finding is
// suppressed at the call site with //lint:allow determtaint(reason).
// `pervalint -why file:line` prints the full call-graph path from the
// flagged call to the seed.
var DetermTaint = &Analyzer{
	Name: "determtaint",
	Doc:  "flag calls from deterministic packages into transitively nondeterministic helpers elsewhere in the module",
	Run:  runDetermTaint,
}

// taintSeed is one nondeterministic construct: the position and a
// short description ("time.Now", "map range", ...).
type taintSeed struct {
	pos  token.Pos
	desc string
}

// taintResult is the module-wide fixpoint, memoized on the Module.
type taintResult struct {
	// seedOf maps a function to the first live (unsuppressed) seed in
	// its own body.
	seedOf map[*types.Func]taintSeed
	// next maps a tainted function without its own seed to the call
	// edge leading one hop closer to a seed (BFS tree toward seeds).
	next map[*types.Func]CallEdge
	// findings records every reported call site for -why lookup.
	findings []TaintFinding
}

// TaintFinding is one reported deterministic-boundary crossing.
type TaintFinding struct {
	Pos    token.Position
	Caller *types.Func
	Callee *types.Func
}

func (tr *taintResult) tainted(fn *types.Func) bool {
	if _, ok := tr.seedOf[fn]; ok {
		return true
	}
	_, ok := tr.next[fn]
	return ok
}

// taintFixpoint computes (memoized) the module-wide taint set.
func (m *Module) taintFixpoint() *taintResult {
	if m.taint != nil {
		return m.taint
	}
	tr := &taintResult{
		seedOf: make(map[*types.Func]taintSeed),
		next:   make(map[*types.Func]CallEdge),
	}
	m.taint = tr
	g := m.Graph

	// Seed collection, over every loaded module package (not just the
	// analyzed set: the whole point is seeing helpers elsewhere).
	for _, pkg := range m.Graph.Pkgs {
		inBoundary := contains(m.Config.DeterministicPkgs, pkg.ImportPath)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn = canonFunc(fn)
				if _, seen := tr.seedOf[fn]; seen {
					continue
				}
				if seed, ok := firstLiveSeed(m, pkg, fd, inBoundary); ok {
					tr.seedOf[fn] = seed
				}
			}
		}
	}

	// Backward BFS from the seed functions over the caller index: a
	// function is tainted when it can reach a live seed through calls.
	var queue []*types.Func
	for fn := range tr.seedOf {
		queue = append(queue, fn)
	}
	// Deterministic expansion order for reproducible shortest paths.
	sortFuncs(queue)
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		callers := g.Callers[fn]
		for _, e := range callers {
			if tr.tainted(e.Caller) {
				continue
			}
			tr.next[e.Caller] = e
			queue = append(queue, e.Caller)
		}
	}
	return tr
}

func sortFuncs(fns []*types.Func) {
	for i := 1; i < len(fns); i++ {
		for j := i; j > 0 && funcKey(fns[j]) < funcKey(fns[j-1]); j-- {
			fns[j], fns[j-1] = fns[j-1], fns[j]
		}
	}
}

// firstLiveSeed scans fd's body for the earliest nondeterministic
// construct not suppressed by an allow: //lint:allow determtaint stops
// seeding anywhere; inside the deterministic boundary //lint:allow
// determinism does too (those sites are the package-local analyzer's
// business, already justified in place).
func firstLiveSeed(m *Module, pkg *Package, fd *ast.FuncDecl, inBoundary bool) (taintSeed, bool) {
	var seed taintSeed
	found := false
	suppressed := func(pos token.Pos) bool {
		position := m.Loader.Fset.Position(pos)
		if m.allowedAt(pkg, "determtaint", position) {
			return true
		}
		return inBoundary && m.allowedAt(pkg, "determinism", position)
	}
	// Walk from the declaration, not the body, so collectThenSorted can
	// find the enclosing FuncDecl on the stack for top-level map ranges.
	inspectStack(fd, func(n ast.Node, stack []ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if desc := nondetCallDesc(pkg.Info, n); desc != "" && !suppressed(n.Pos()) {
				seed, found = taintSeed{pos: n.Pos(), desc: desc}, true
			}
		case *ast.RangeStmt:
			t := pkg.Info.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if collectThenSorted(pkg.Info, n, stack) || suppressed(n.Pos()) {
				return true
			}
			seed, found = taintSeed{pos: n.Pos(), desc: "map range"}, true
		}
		return !found
	})
	return seed, found
}

func runDetermTaint(p *Pass) {
	if p.Mod == nil || p.Mod.Graph == nil {
		return
	}
	if !contains(p.Config.DeterministicPkgs, p.ImportPath) {
		return
	}
	tr := p.Mod.taintFixpoint()
	g := p.Mod.Graph
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
			fn = canonFunc(fn)
			for _, e := range g.Callees[fn] {
				calleePkg := g.PkgOf[e.Callee]
				if calleePkg == nil || contains(p.Config.DeterministicPkgs, calleePkg.ImportPath) {
					// Inside the boundary the package-local analyzer
					// already flags the seed at its own site.
					continue
				}
				if !tr.tainted(e.Callee) {
					continue
				}
				hops, seed := tr.pathFrom(e.Callee, g)
				seedPos := p.Fset.Position(seed.pos)
				via := ""
				if e.Dynamic {
					via = fmt.Sprintf(" (dynamic dispatch via %s)", FuncDisplay(e.Iface))
				}
				p.Reportf(e.Pos, "call to %s%s is determinism-tainted: reaches %s at %s%s; make the helper deterministic, or justify with //lint:allow determtaint(reason) — pervalint -why %s:%d prints the path",
					FuncDisplay(e.Callee), via, seed.desc, shortPos(seedPos), hopSummary(hops), filepath.Base(p.Fset.Position(e.Pos).Filename), p.Fset.Position(e.Pos).Line)
				tr.findings = append(tr.findings, TaintFinding{
					Pos:    p.Fset.Position(e.Pos),
					Caller: fn,
					Callee: e.Callee,
				})
			}
		}
	}
}

// pathFrom walks the BFS tree from fn to its seed, returning the hop
// functions (fn first) and the seed.
func (tr *taintResult) pathFrom(fn *types.Func, g *CallGraph) ([]*types.Func, taintSeed) {
	var hops []*types.Func
	cur := fn
	for {
		hops = append(hops, cur)
		if seed, ok := tr.seedOf[cur]; ok {
			return hops, seed
		}
		e, ok := tr.next[cur]
		if !ok || len(hops) > 64 {
			// Unreachable for a tainted function; bail defensively.
			return hops, taintSeed{desc: "unknown"}
		}
		cur = e.Callee
	}
}

// hopSummary renders a compact " via a → b" suffix for multi-hop
// paths; the direct case (the callee itself holds the seed) is empty.
func hopSummary(hops []*types.Func) string {
	if len(hops) <= 1 {
		return ""
	}
	if len(hops) > 4 {
		return fmt.Sprintf(" via %d intermediate calls", len(hops)-1)
	}
	names := make([]string, 0, len(hops)-1)
	for _, fn := range hops[1:] {
		names = append(names, FuncDisplay(fn))
	}
	return " via " + strings.Join(names, " → ")
}

func shortPos(p token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// ExplainTaint renders the full call-graph path for the determtaint
// finding at (file, line) — file matched by suffix, so a repo-relative
// or bare filename works. It returns one rendered line per hop, or nil
// when no finding matches.
func (r *Result) ExplainTaint(file string, line int) []string {
	if r.Mod == nil || r.Mod.taint == nil {
		return nil
	}
	tr := r.Mod.taint
	g := r.Mod.Graph
	fset := r.Mod.Loader.Fset
	for _, f := range tr.findings {
		if f.Pos.Line != line || !suffixMatch(f.Pos.Filename, file) {
			continue
		}
		var out []string
		out = append(out, fmt.Sprintf("%s: %s calls %s",
			shortPos(f.Pos), FuncDisplay(f.Caller), FuncDisplay(f.Callee)))
		hops, seed := tr.pathFrom(f.Callee, g)
		for i, fn := range hops {
			if s, ok := tr.seedOf[fn]; ok && i == len(hops)-1 {
				out = append(out, fmt.Sprintf("  %s: %s contains %s (seed)",
					shortPos(fset.Position(s.pos)), FuncDisplay(fn), seed.desc))
				break
			}
			e := tr.next[fn]
			out = append(out, fmt.Sprintf("  %s: %s calls %s",
				shortPos(fset.Position(e.Pos)), FuncDisplay(fn), FuncDisplay(e.Callee)))
		}
		return out
	}
	return nil
}

func suffixMatch(full, suffix string) bool {
	full = filepath.ToSlash(full)
	suffix = filepath.ToSlash(suffix)
	if full == suffix || strings.HasSuffix(full, "/"+suffix) {
		return true
	}
	return filepath.Base(full) == suffix
}
