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

type wgRecord struct {
	kind      string // "add" or "done"
	key       chainRef
	pos       token.Pos
	loop      int
	inGo      bool
	goLit     *ast.FuncLit
	deferred  bool
	addOne    bool
	delegated bool
}

// dwWalker collects one function's WaitGroup records on the ordered
// walk. It keeps no path state: records accumulate across branches,
// each stamped with the walk's loop depth, go literal and deferred
// context.
type dwWalker struct {
	stateless
	pass    *Pass
	recv    types.Object
	params  map[types.Object]int
	records []wgRecord
	escaped map[chainRef]bool
}

func runDeadWait(pass *Pass) error {
	targets := nonTestDecls(pass)

	// Fact rounds first so delegation chains inside the unit resolve
	// regardless of declaration order; then one reporting pass over
	// the last round's walkers.
	walkers := map[string]*dwWalker{}
	summarize(targets, func(t declTarget) bool {
		w := newDWWalker(pass, t.fn)
		walkOrdered(pass.Info, t.decl.Body, w)
		walkers[FuncKey(t.fn)] = w
		return w.exportFact(t.fn)
	})
	for _, t := range targets {
		walkers[FuncKey(t.fn)].check()
	}
	return nil
}

func newDWWalker(pass *Pass, fn *types.Func) *dwWalker {
	sig := fn.Type().(*types.Signature)
	w := &dwWalker{pass: pass, recv: recvObjOf(sig), params: map[types.Object]int{}, escaped: map[chainRef]bool{}}
	for i := 0; i < sig.Params().Len(); i++ {
		w.params[sig.Params().At(i)] = i
	}
	return w
}

// lits walks every literal inline: a go body in goroutine context
// (keeping the loop depth it was spawned at), a deferred body as
// deferred, and a literal used as a value (a callback) in the
// caller's context.
func (w *dwWalker) lits() litMode { return litInline }

func (w *dwWalker) visit(ow *orderWalk, n ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		w.handleCall(ow, n, false, ow.deferred)
	case *ast.GoStmt:
		// A named callee contributes its summarized effects at the
		// spawn site.
		if _, isLit := ast.Unparen(n.Call.Fun).(*ast.FuncLit); !isLit {
			w.handleCall(ow, n.Call, true, ow.deferred)
		}
	case *ast.DeferStmt:
		if _, isLit := ast.Unparen(n.Call.Fun).(*ast.FuncLit); !isLit {
			w.handleCall(ow, n.Call, false, true)
		}
	case *ast.CompositeLit:
		for _, elt := range n.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			w.noteEscape(elt)
		}
	}
}

// handleCall classifies one call: a WaitGroup method, a summarized
// delegate, or an escape point for any WaitGroup argument.
func (w *dwWalker) handleCall(ow *orderWalk, call *ast.CallExpr, spawned, deferred bool) {
	if key, method, ok := w.wgMethodCall(call); ok {
		if method == "Add" || method == "Done" {
			one := false
			if method == "Add" && len(call.Args) == 1 {
				if v, isConst := constInt(w.pass.Info, call.Args[0]); isConst && v == 1 {
					one = true
				}
			}
			w.records = append(w.records, wgRecord{
				kind: strings.ToLower(method), key: key, pos: call.Pos(),
				loop: len(ow.loops), inGo: ow.spawn != nil, goLit: ow.spawn,
				deferred: deferred, addOne: one,
			})
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
		w.applyFact(ow, call, fact, spawned)
	} else {
		for _, a := range call.Args {
			w.noteEscape(a)
		}
	}
}

// applyFact synthesizes Add/Done records at a call site from the
// callee's summarized effects.
func (w *dwWalker) applyFact(ow *orderWalk, call *ast.CallExpr, fact *WaitGroupEffectFact, spawned bool) {
	resolve := func(ref WGRef) (chainRef, bool) {
		var base ast.Expr
		if ref.Param < 0 {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return chainRef{}, false
			}
			base = sel.X
		} else {
			if ref.Param >= len(call.Args) {
				return chainRef{}, false
			}
			base = call.Args[ref.Param]
		}
		key, ok := chainOf(w.pass.Info, base)
		if !ok {
			return chainRef{}, false
		}
		if ref.Path != "" {
			key.path = joinField(key.path, ref.Path)
		}
		return key, true
	}
	emit := func(refs []WGRef, kind string) {
		for _, ref := range refs {
			if key, ok := resolve(ref); ok {
				w.records = append(w.records, wgRecord{
					kind: kind, key: key, pos: call.Pos(), loop: len(ow.loops),
					inGo: spawned || ow.spawn != nil, goLit: ow.spawn,
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
func (w *dwWalker) wgMethodCall(call *ast.CallExpr) (chainRef, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return chainRef{}, "", false
	}
	switch sel.Sel.Name {
	case "Add", "Done", "Wait":
	default:
		return chainRef{}, "", false
	}
	tv, ok := w.pass.Info.Types[sel.X]
	if !ok || tv.Type == nil || !isSyncNamed(tv.Type, "WaitGroup") {
		return chainRef{}, "", false
	}
	key, ok := chainOf(w.pass.Info, sel.X)
	if !ok {
		return chainRef{}, "", false
	}
	return key, sel.Sel.Name, true
}

// noteEscape marks a WaitGroup whose address leaves through an
// unsummarized call or a composite value — its bookkeeping can no
// longer be accounted locally, so checks for it are skipped.
func (w *dwWalker) noteEscape(a ast.Expr) {
	key, ok := chainOf(w.pass.Info, a)
	if !ok {
		return
	}
	t := key.root.Type()
	if tv, ok := w.pass.Info.Types[ast.Unparen(a)]; ok && tv.Type != nil {
		t = tv.Type
	}
	if !isSyncNamed(t, "WaitGroup") {
		return
	}
	w.escaped[key] = true
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
	byKey := map[chainRef][]wgRecord{}
	var keys []chainRef
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
