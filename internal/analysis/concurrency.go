package analysis

// Shared infrastructure for the concurrency-contract analyzers
// (lockorder, chansafety, deadwait, ctxflow), next to their ordered
// walk in orderwalk.go: repo-wide lock-class naming, value identity
// within a function, and the classification of operations that can
// block a goroutine indefinitely.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// BlockSite is one potentially-indefinite blocking operation, carried
// inside facts so callers in later-analyzed packages see what a
// callee may wait on. Via names the call chain from the fact's
// function down to the operation (empty for a local site).
type BlockSite struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	What string `json:"what"`
	Via  string `json:"via,omitempty"`
}

func (s BlockSite) key() string {
	return s.What + "|" + s.File + "|" + strconv.Itoa(s.Line) + ":" + strconv.Itoa(s.Col)
}

// chainRef identifies a value within one function walk (a mutex, a
// channel, a WaitGroup): the root object plus the dotted field path
// from it.
type chainRef struct {
	root types.Object
	path string
}

// chainOf resolves an expression like p.pipe.workers to its root
// object and dotted field path. Parens, addresses-of, and derefs are
// transparent.
func chainOf(info *types.Info, e ast.Expr) (chainRef, bool) {
	var parts []string
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[v]
			if obj == nil {
				obj = info.Defs[v]
			}
			if obj == nil {
				return chainRef{}, false
			}
			if _, isPkg := obj.(*types.PkgName); isPkg {
				return chainRef{}, false
			}
			return chainRef{obj, strings.Join(parts, ".")}, true
		case *ast.SelectorExpr:
			parts = append([]string{v.Sel.Name}, parts...)
			e = v.X
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return chainRef{}, false
			}
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return chainRef{}, false
		}
	}
}

// isSyncNamed reports whether t (after pointer deref) is the named
// type sync.<name>.
func isSyncNamed(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync" && named.Obj().Name() == name
}

// isMutexType reports a sync.Mutex or sync.RWMutex (after deref).
func isMutexType(t types.Type) bool {
	return isSyncNamed(t, "Mutex") || isSyncNamed(t, "RWMutex")
}

// isContextType reports the context.Context interface type.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "context" && named.Obj().Name() == "Context"
}

// lockClass derives the repo-wide identity of the mutex named by
// expr: "pkg/path.Type.field" for a mutex field reached through a
// value of a named type, "pkg/path.var[.field]" for a package-level
// variable, and "" for locks the analysis cannot class across
// functions (locals, unresolvable chains). Order edges are only
// recorded between classed locks; unclassed locks still participate
// in held-while-blocking checks within their function.
func lockClass(info *types.Info, pkg *types.Package, expr ast.Expr) string {
	expr = ast.Unparen(expr)
	if sel, ok := expr.(*ast.SelectorExpr); ok {
		// Prefer the innermost owner type: the class of a.b.mu is
		// "pkg.TypeOfB.mu" no matter how the value was reached.
		if tv, ok := info.Types[sel.X]; ok && tv.Type != nil {
			t := tv.Type
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
			}
			if named, isNamed := t.(*types.Named); isNamed {
				if tp := named.Obj().Pkg(); tp != nil {
					return tp.Path() + "." + named.Obj().Name() + "." + sel.Sel.Name
				}
			}
		}
	}
	ref, ok := chainOf(info, expr)
	if !ok {
		return ""
	}
	// Package-level variable (possibly with a field path).
	if v, isVar := ref.root.(*types.Var); isVar && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		cls := v.Pkg().Path() + "." + v.Name()
		if ref.path != "" {
			cls += "." + ref.path
		}
		return cls
	}
	return ""
}

// blockingCall classifies a call expression that can block its
// goroutine indefinitely: sync.WaitGroup.Wait, sync.Cond.Wait, a
// method call through an io interface value (Read/Write/ReadFrom/
// WriteTo on io.Reader-shaped interfaces), or one of the io helpers
// that loop over such calls. Mutex acquisition is deliberately not
// here — lockorder models locks separately.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "io" {
		switch fn.Name() {
		case "ReadFull", "ReadAtLeast", "ReadAll", "Copy", "CopyN", "CopyBuffer", "Pipe":
			if fn.Name() == "Pipe" {
				return "", false
			}
			return "io." + fn.Name(), true
		}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	if sel.Sel.Name == "Wait" {
		if isSyncNamed(sig.Recv().Type(), "WaitGroup") {
			return "sync.WaitGroup.Wait", true
		}
		if isSyncNamed(sig.Recv().Type(), "Cond") {
			return "sync.Cond.Wait", true
		}
	}
	// A Read/Write-shaped call through an interface value is I/O whose
	// latency the callee cannot bound (network, pipes, blocked peers).
	if tv, ok := info.Types[sel.X]; ok && tv.Type != nil && types.IsInterface(tv.Type.Underlying()) {
		switch sel.Sel.Name {
		case "Read", "Write", "ReadFrom", "WriteTo", "ReadByte", "WriteByte":
			return "interface " + sel.Sel.Name + " (I/O)", true
		}
	}
	return "", false
}

// localForkJoinWait reports whether call, a WaitGroup Wait, is a local
// fork-join: the same function both Adds to the group and spawns the
// goroutines that Done it, so the wait is bounded by work the function
// itself started (parallel.For's shape) rather than by an external
// event. Such waits are exempt from the blocking-op checks; deadwait
// still audits their Add/Done balance.
func localForkJoinWait(info *types.Info, body *ast.BlockStmt, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	wg, ok := chainOf(info, sel.X)
	if !ok {
		return false
	}
	sawAdd, sawGo := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			sawGo = true
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Add" {
				return true
			}
			if ref, ok := chainOf(info, sel.X); ok && ref == wg {
				sawAdd = true
			}
		}
		return true
	})
	return sawAdd && sawGo
}

// localJoinReceive reports whether a receive on ch is joined to a
// goroutine the same function spawned: the channel is a function-local
// make(chan ...) and some go statement in the body sends on it
// (faultinject's sandbox shape). The wait is then bounded by the
// function's own spawn, not an external producer.
func localJoinReceive(info *types.Info, body *ast.BlockStmt, ch ast.Expr) bool {
	ref, ok := chainOf(info, ch)
	if !ok || ref.path != "" {
		return false
	}
	v, ok := ref.root.(*types.Var)
	if !ok || v.Parent() == nil || (v.Pkg() != nil && v.Parent() == v.Pkg().Scope()) {
		return false
	}
	sends := false
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if s, ok := m.(*ast.SendStmt); ok {
				if r, ok := chainOf(info, s.Chan); ok && r == ref {
					sends = true
				}
			}
			return !sends
		})
		return !sends
	})
	return sends
}

// selectHasDefault reports whether a select statement has a default
// clause (making it non-blocking).
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// carriesCancel walks a type for a cancellation affordance a caller
// could use to unblock the value's methods: a channel or a
// context.Context, reachable through pointers and struct fields.
func carriesCancel(t types.Type, depth int) bool {
	if t == nil || depth > 6 {
		return false
	}
	if isContextType(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Chan:
		return true
	case *types.Pointer:
		return carriesCancel(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesCancel(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	}
	return false
}

// mergeBlockSites folds callee block sites into a merged map with a
// via chain, mirroring panicfact's merge. Returns true when a new
// site was added.
func mergeBlockSites(merged map[string]BlockSite, callee string, sites []BlockSite) bool {
	added := false
	for _, s := range sites {
		via := calleeShortName(callee)
		if s.Via != "" {
			via += " → " + s.Via
		}
		if len(via) > 120 {
			via = via[:120]
		}
		ns := s
		ns.Via = via
		if _, dup := merged[ns.key()]; !dup {
			merged[ns.key()] = ns
			added = true
		}
	}
	return added
}

// sortBlockSites orders sites by position then label for
// deterministic facts.
func sortBlockSites(sites []BlockSite) {
	for i := 1; i < len(sites); i++ {
		for j := i; j > 0 && blockSiteLess(sites[j], sites[j-1]); j-- {
			sites[j], sites[j-1] = sites[j-1], sites[j]
		}
	}
}

func blockSiteLess(a, b BlockSite) bool {
	if a.File != b.File {
		return a.File < b.File
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	if a.Col != b.Col {
		return a.Col < b.Col
	}
	if a.What != b.What {
		return a.What < b.What
	}
	return a.Via < b.Via
}

// declTargets collects the non-test function declarations of a pass,
// the shape every interprocedural analyzer iterates.
type declTarget struct {
	fn   *types.Func
	decl *ast.FuncDecl
}

func nonTestDecls(pass *Pass) []declTarget {
	var targets []declTarget
	for _, file := range pass.Files {
		if isTestFilename(pass.Fset, file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				targets = append(targets, declTarget{fn, fd})
			}
		}
	}
	return targets
}

func isTestFilename(fset *token.FileSet, pos token.Pos) bool {
	name := fset.Position(pos).Filename
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}
