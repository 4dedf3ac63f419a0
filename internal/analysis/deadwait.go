package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// deadwait checks sync.WaitGroup Add/Done balance along the paths
// through goroutine bodies of the parallel helpers and the stream
// pipeline: an Add inside the spawned goroutine races the Wait, an
// Add with no reachable Done (direct or through a summarized callee)
// deadlocks it, a single Add(1) feeding a loop of Done-ing goroutines
// underflows, and a non-deferred Done after an early return path
// leaks the counter.

// WGRef names a WaitGroup reachable from a function's parameters:
// Param is the parameter index (-1 for the receiver) and Path the
// field selector chain from it ("" when the parameter is the
// WaitGroup itself).
type WGRef struct {
	Param int    `json:"param"`
	Path  string `json:"path,omitempty"`
}

// WaitGroupEffectFact summarizes which parameter-reachable WaitGroups
// a function calls Add or Done on, so callers can account for
// delegated bookkeeping (e.g. a worker method that defers Done on a
// field of its receiver).
type WaitGroupEffectFact struct {
	Adds  []WGRef `json:"adds,omitempty"`
	Dones []WGRef `json:"dones,omitempty"`
}

func (*WaitGroupEffectFact) FactName() string { return "deadwait.effects" }

func init() {
	RegisterFactType(func() Fact { return new(WaitGroupEffectFact) })
	Register(&Analyzer{
		Name: "deadwait",
		Doc: "sync.WaitGroup Add/Done imbalance on a path through a goroutine body: Add inside the " +
			"spawned goroutine, Add with no reachable Done, a loop-spawn mismatch against a single " +
			"Add(1), or a Done that an early return can skip",
		Packages: []string{"internal/parallel", "internal/core"},
		Run:      runDeadWait,
	})
}

// wgKey identifies one WaitGroup value inside a function: the root
// object plus the field path from it.
type wgKey struct {
	root types.Object
	path string
}

type wgRecord struct {
	kind      string // "add" or "done"
	key       wgKey
	pos       token.Pos
	loop      int
	inGo      bool
	goLit     *ast.FuncLit
	deferred  bool
	addOne    bool
	delegated bool
}

type dwCtx struct {
	loop     int
	goLit    *ast.FuncLit
	deferred bool
}

type dwWalker struct {
	pass    *Pass
	recv    types.Object
	params  map[types.Object]int
	records []wgRecord
	escaped map[wgKey]bool
}

func runDeadWait(pass *Pass) error {
	targets := nonTestDecls(pass)

	// Fact rounds first so delegation chains inside the unit resolve
	// regardless of declaration order; then one reporting pass over
	// the last round's walkers.
	walkers := map[string]*dwWalker{}
	summarize(targets, func(t declTarget) bool {
		w := newDWWalker(pass, t.decl)
		w.walkStmts(t.decl.Body.List, dwCtx{})
		walkers[FuncKey(t.fn)] = w
		return w.exportFact(t.fn)
	})
	for _, t := range targets {
		walkers[FuncKey(t.fn)].check()
	}
	return nil
}

func newDWWalker(pass *Pass, decl *ast.FuncDecl) *dwWalker {
	w := &dwWalker{pass: pass, params: map[types.Object]int{}, escaped: map[wgKey]bool{}}
	if decl.Recv != nil {
		for _, f := range decl.Recv.List {
			for _, name := range f.Names {
				w.recv = pass.Info.Defs[name]
			}
		}
	}
	idx := 0
	for _, f := range decl.Type.Params.List {
		for _, name := range f.Names {
			if obj := pass.Info.Defs[name]; obj != nil {
				w.params[obj] = idx
			}
			idx++
		}
		if len(f.Names) == 0 {
			idx++
		}
	}
	return w
}

func (w *dwWalker) walkStmts(list []ast.Stmt, ctx dwCtx) {
	for _, s := range list {
		w.walkStmt(s, ctx)
	}
}

func (w *dwWalker) walkStmt(s ast.Stmt, ctx dwCtx) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.walkStmts(s.List, ctx)
	case *ast.ExprStmt:
		w.walkExpr(s.X, ctx)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.walkExpr(e, ctx)
		}
		for _, e := range s.Lhs {
			w.walkExpr(e, ctx)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(v, ctx)
					}
				}
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, ctx)
		}
		w.walkExpr(s.Cond, ctx)
		w.walkStmts(s.Body.List, ctx)
		if s.Else != nil {
			w.walkStmt(s.Else, ctx)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, ctx)
		}
		inner := ctx
		inner.loop++
		if s.Cond != nil {
			w.walkExpr(s.Cond, ctx)
		}
		w.walkStmts(s.Body.List, inner)
		if s.Post != nil {
			w.walkStmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		w.walkExpr(s.X, ctx)
		inner := ctx
		inner.loop++
		w.walkStmts(s.Body.List, inner)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, ctx)
		}
		if s.Tag != nil {
			w.walkExpr(s.Tag, ctx)
		}
		for _, c := range s.Body.List {
			w.walkStmts(c.(*ast.CaseClause).Body, ctx)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, ctx)
		}
		w.walkStmt(s.Assign, ctx)
		for _, c := range s.Body.List {
			w.walkStmts(c.(*ast.CaseClause).Body, ctx)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				w.walkStmt(cc.Comm, ctx)
			}
			w.walkStmts(cc.Body, ctx)
		}
	case *ast.GoStmt:
		w.handleSpawnedCall(s.Call, ctx)
	case *ast.DeferStmt:
		inner := ctx
		inner.deferred = true
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.walkStmts(lit.Body.List, inner)
		} else {
			w.walkExpr(s.Call, inner)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.walkExpr(e, ctx)
		}
	case *ast.SendStmt:
		w.walkExpr(s.Chan, ctx)
		w.walkExpr(s.Value, ctx)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, ctx)
	case *ast.IncDecStmt:
		w.walkExpr(s.X, ctx)
	}
}

// handleSpawnedCall processes `go f(...)`: a function literal's body
// is walked in goroutine context; a named callee contributes its
// summarized WaitGroup effects at the spawn site.
func (w *dwWalker) handleSpawnedCall(call *ast.CallExpr, ctx dwCtx) {
	for _, a := range call.Args {
		w.walkExpr(a, ctx)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.walkStmts(lit.Body.List, dwCtx{loop: ctx.loop, goLit: lit})
		return
	}
	w.handleCall(call, ctx, true)
}

func (w *dwWalker) walkExpr(e ast.Expr, ctx dwCtx) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.handleCall(e, ctx, false)
	case *ast.FuncLit:
		w.walkStmts(e.Body.List, ctx)
	case *ast.ParenExpr:
		w.walkExpr(e.X, ctx)
	case *ast.BinaryExpr:
		w.walkExpr(e.X, ctx)
		w.walkExpr(e.Y, ctx)
	case *ast.UnaryExpr:
		w.walkExpr(e.X, ctx)
	case *ast.StarExpr:
		w.walkExpr(e.X, ctx)
	case *ast.IndexExpr:
		w.walkExpr(e.X, ctx)
		w.walkExpr(e.Index, ctx)
	case *ast.SliceExpr:
		w.walkExpr(e.X, ctx)
		w.walkExpr(e.Low, ctx)
		w.walkExpr(e.High, ctx)
		w.walkExpr(e.Max, ctx)
	case *ast.SelectorExpr:
		w.walkExpr(e.X, ctx)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			w.walkExpr(elt, ctx)
			w.noteEscape(elt)
		}
	case *ast.TypeAssertExpr:
		w.walkExpr(e.X, ctx)
	}
}

// handleCall classifies one call: a WaitGroup method, a summarized
// delegate, or an escape point for any WaitGroup argument.
func (w *dwWalker) handleCall(call *ast.CallExpr, ctx dwCtx, spawned bool) {
	if key, method, ok := w.wgMethodCall(call); ok {
		switch method {
		case "Add", "Done":
			one := false
			if method == "Add" && len(call.Args) == 1 {
				if v, isConst := constInt(w.pass.Info, call.Args[0]); isConst && v == 1 {
					one = true
				}
			}
			w.records = append(w.records, wgRecord{
				kind: strings.ToLower(method), key: key, pos: call.Pos(),
				loop: ctx.loop, inGo: ctx.goLit != nil, goLit: ctx.goLit,
				deferred: ctx.deferred, addOne: one,
			})
		}
		for _, a := range call.Args {
			w.walkExpr(a, ctx)
		}
		return
	}
	callee := calleeFunc(w.pass.Info, call)
	var fact *WaitGroupEffectFact
	if callee != nil {
		if f, ok := w.pass.Facts.Import(callee, "deadwait.effects"); ok {
			fact = f.(*WaitGroupEffectFact)
		}
	}
	if fact != nil {
		w.applyFact(call, fact, ctx, spawned)
	} else {
		for _, a := range call.Args {
			w.noteEscape(a)
		}
	}
	for _, a := range call.Args {
		w.walkExpr(a, ctx)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.walkExpr(sel.X, ctx)
	}
}

// applyFact synthesizes Add/Done records at a call site from the
// callee's summarized effects.
func (w *dwWalker) applyFact(call *ast.CallExpr, fact *WaitGroupEffectFact, ctx dwCtx, spawned bool) {
	resolve := func(ref WGRef) (wgKey, bool) {
		var base ast.Expr
		if ref.Param < 0 {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return wgKey{}, false
			}
			base = sel.X
		} else {
			if ref.Param >= len(call.Args) {
				return wgKey{}, false
			}
			base = call.Args[ref.Param]
		}
		root, path, ok := w.objChain(base)
		if !ok {
			return wgKey{}, false
		}
		full := path
		if ref.Path != "" {
			if full != "" {
				full += "."
			}
			full += ref.Path
		}
		return wgKey{root: root, path: full}, true
	}
	emit := func(refs []WGRef, kind string) {
		for _, ref := range refs {
			if key, ok := resolve(ref); ok {
				w.records = append(w.records, wgRecord{
					kind: kind, key: key, pos: call.Pos(), loop: ctx.loop,
					inGo: spawned || ctx.goLit != nil, goLit: ctx.goLit,
					deferred: true, delegated: true,
				})
			}
		}
	}
	emit(fact.Adds, "add")
	emit(fact.Dones, "done")
}

// wgMethodCall matches a call to Add/Done/Wait on a sync.WaitGroup
// value and resolves which WaitGroup it targets.
func (w *dwWalker) wgMethodCall(call *ast.CallExpr) (wgKey, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return wgKey{}, "", false
	}
	switch sel.Sel.Name {
	case "Add", "Done", "Wait":
	default:
		return wgKey{}, "", false
	}
	tv, ok := w.pass.Info.Types[sel.X]
	if !ok || tv.Type == nil || !isWaitGroup(tv.Type) {
		return wgKey{}, "", false
	}
	root, path, ok := w.objChain(sel.X)
	if !ok {
		return wgKey{}, "", false
	}
	return wgKey{root: root, path: path}, sel.Sel.Name, true
}

func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

// objChain resolves an expression like p.pipe.workers to its root
// object and dotted field path.
func (w *dwWalker) objChain(e ast.Expr) (types.Object, string, bool) {
	var parts []string
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := w.pass.Info.Uses[v]
			if obj == nil {
				obj = w.pass.Info.Defs[v]
			}
			if obj == nil {
				return nil, "", false
			}
			if _, isPkg := obj.(*types.PkgName); isPkg {
				return nil, "", false
			}
			return obj, strings.Join(parts, "."), true
		case *ast.SelectorExpr:
			parts = append([]string{v.Sel.Name}, parts...)
			e = v.X
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return nil, "", false
			}
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil, "", false
		}
	}
}

// noteEscape marks a WaitGroup whose address leaves through an
// unsummarized call or a composite value — its bookkeeping can no
// longer be accounted locally, so checks for it are skipped.
func (w *dwWalker) noteEscape(a ast.Expr) {
	root, path, ok := w.objChain(a)
	if !ok || root == nil {
		return
	}
	t := root.Type()
	if tv, ok := w.pass.Info.Types[ast.Unparen(a)]; ok && tv.Type != nil {
		t = tv.Type
	}
	if !isWaitGroup(t) {
		return
	}
	w.escaped[wgKey{root: root, path: path}] = true
}

// exportFact publishes the parameter-reachable effects, reporting
// whether the stored fact changed.
func (w *dwWalker) exportFact(fn *types.Func) bool {
	var fact WaitGroupEffectFact
	seen := map[string]bool{}
	for _, r := range w.records {
		param, ok := -1, false
		if w.recv != nil && r.key.root == w.recv {
			ok = true
		} else if i, isParam := w.params[r.key.root]; isParam {
			param, ok = i, true
		}
		if !ok {
			continue
		}
		ref := WGRef{Param: param, Path: r.key.path}
		k := r.kind + "|" + ref.Path + "|" + string(rune(ref.Param+2))
		if seen[k] {
			continue
		}
		seen[k] = true
		if r.kind == "add" {
			fact.Adds = append(fact.Adds, ref)
		} else {
			fact.Dones = append(fact.Dones, ref)
		}
	}
	sortRefs := func(refs []WGRef) {
		sort.Slice(refs, func(i, j int) bool {
			if refs[i].Param != refs[j].Param {
				return refs[i].Param < refs[j].Param
			}
			return refs[i].Path < refs[j].Path
		})
	}
	sortRefs(fact.Adds)
	sortRefs(fact.Dones)
	present := len(fact.Adds) > 0 || len(fact.Dones) > 0
	return exportOrWithdraw(w.pass.Facts, FuncKey(fn), present, &fact)
}

// check applies the four imbalance rules to the collected records.
func (w *dwWalker) check() {
	byKey := map[wgKey][]wgRecord{}
	var keys []wgKey
	for _, r := range w.records {
		if _, ok := byKey[r.key]; !ok {
			keys = append(keys, r.key)
		}
		byKey[r.key] = append(byKey[r.key], r)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].root.Pos() != keys[j].root.Pos() {
			return keys[i].root.Pos() < keys[j].root.Pos()
		}
		return keys[i].path < keys[j].path
	})
	for _, key := range keys {
		if w.escaped[key] {
			continue
		}
		recs := byKey[key]
		var adds, dones []wgRecord
		for _, r := range recs {
			switch r.kind {
			case "add":
				adds = append(adds, r)
			case "done":
				dones = append(dones, r)
			}
		}
		for _, a := range adds {
			if a.inGo && !a.delegated {
				w.pass.Reportf(a.pos, "WaitGroup.Add inside the spawned goroutine races the Wait; Add before the go statement")
			}
		}
		if len(adds) > 0 && len(dones) == 0 {
			w.pass.Reportf(adds[0].pos, "WaitGroup.Add with no reachable Done (direct or through a summarized callee); Wait will block forever")
		}
		if len(adds) == 1 && adds[0].addOne && !adds[0].inGo && len(dones) > 0 {
			allDeeper := true
			for _, d := range dones {
				if !d.inGo || d.loop <= adds[0].loop {
					allDeeper = false
					break
				}
			}
			if allDeeper {
				w.pass.Reportf(adds[0].pos, "WaitGroup.Add(1) runs once but every Done-ing goroutine is spawned inside a loop; move Add into the loop or Add the count")
			}
		}
		for _, d := range dones {
			if d.inGo && !d.deferred && d.goLit != nil && returnBefore(d.goLit, d.pos) {
				w.pass.Reportf(d.pos, "WaitGroup.Done can be skipped by an earlier return in this goroutine; defer it")
			}
		}
	}
}

// returnBefore reports a return statement inside lit's body (not in a
// nested literal) positioned before pos.
func returnBefore(lit *ast.FuncLit, pos token.Pos) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok && n != lit {
			return false
		}
		if r, ok := n.(*ast.ReturnStmt); ok && r.Pos() < pos {
			found = true
		}
		return true
	})
	return found
}
