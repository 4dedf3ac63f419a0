package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the taint policy of the flow walk (flow.go), shared by
// allocguard and panicfact. It tracks which objects carry values
// decoded from untrusted bytes (wire sources: encoding/binary reads,
// bitio bit reads, huffman symbol decodes). A comparison in an if or
// switch condition sanitizes the compared objects — the analyzers
// flag *unguarded* flows, and any explicit bound check is taken as
// the guard. Calls are summarized through three fact kinds so taint
// crosses function and package boundaries without a global data-flow
// pass:
//
//   - taint.result: the callee's results derive from wire bytes
//   - taint.ptrargs: the callee writes wire bytes through these
//     pointer parameters (e.g. a binary.Read wrapper)
//   - taint.paramalloc: the callee passes these parameters to an
//     allocation size without its own bound check
//
// Summaries are computed per unit to a fixpoint (so helpers may be
// declared after their callers, or recurse) before analyzers run;
// topological unit ordering makes dependency summaries available to
// dependents.

// UntrustedResultFact marks a function whose results derive from
// untrusted wire bytes.
type UntrustedResultFact struct {
	Origin string `json:"origin"`
}

func (*UntrustedResultFact) FactName() string { return "taint.result" }

// TaintsPtrArgsFact marks a function that stores wire-derived bytes
// through the pointees of the listed parameter indices.
type TaintsPtrArgsFact struct {
	Params []int  `json:"params"`
	Origin string `json:"origin"`
}

func (*TaintsPtrArgsFact) FactName() string { return "taint.ptrargs" }

// ParamAllocFact marks a function that lets the listed parameters
// reach an allocation size (make/append growth) without comparing
// them against a bound first. A caller passing a tainted value into
// such a parameter inherits the allocation sink.
type ParamAllocFact struct {
	Params []int `json:"params"`
}

func (*ParamAllocFact) FactName() string { return "taint.paramalloc" }

func init() {
	RegisterFactType(func() Fact { return new(UntrustedResultFact) })
	RegisterFactType(func() Fact { return new(TaintsPtrArgsFact) })
	RegisterFactType(func() Fact { return new(ParamAllocFact) })
}

// taintHooks receive sink events during a scan. Nil fields are
// skipped, so each analyzer subscribes only to the sinks it reports.
type taintHooks struct {
	// makeSize fires when a tainted value reaches a make length or
	// capacity argument.
	makeSize func(pos token.Pos, origin string)
	// readBound fires when a tainted value bounds an io read
	// (io.ReadFull / io.ReadAtLeast slice bounds, io.CopyN count).
	readBound func(pos token.Pos, what, origin string)
	// loopAppend fires for an append whose enclosing loop runs a
	// tainted number of iterations.
	loopAppend func(pos token.Pos, origin string)
	// index fires when a tainted value is used as an index or slice
	// bound (a potential out-of-range panic).
	index func(pos token.Pos, origin string)
	// paramAlloc fires when a tainted argument flows into a callee
	// parameter that the callee's ParamAllocFact marks as reaching an
	// allocation unguarded.
	paramAlloc func(pos token.Pos, callee *types.Func, origin string)
}

// viaOrigin extends a summarized origin with the callee it crossed.
func viaOrigin(base, callee string) string {
	o := base + " via " + callee
	if len(o) > 160 {
		o = o[:160]
	}
	return o
}

// taintFlow is the taint policy of the flow walk. Sources are wire
// reads (wireSource) and summarized callees; a comparison in an if or
// switch condition sanitizes the compared objects; sinks fire the
// hooks.
type taintFlow struct {
	facts *FactStore
	hooks *taintHooks
	// summary is set while computing this function's facts: parameters
	// then carry param origins and the walk records what escapes where.
	summary     bool
	retOrigin   string
	ptrParams   map[int]string
	allocParams map[int]bool
}

// walkTaint runs the taint policy over one declaration. With nil
// hooks it runs in summary mode.
func walkTaint(info *types.Info, facts *FactStore, decl *ast.FuncDecl, hooks *taintHooks) *taintFlow {
	t := &taintFlow{
		facts:       facts,
		hooks:       hooks,
		summary:     hooks == nil,
		ptrParams:   map[int]string{},
		allocParams: map[int]bool{},
	}
	if t.summary {
		t.hooks = &taintHooks{}
	}
	w := newFlowWalker(info, decl, t, 1)
	if t.summary {
		// Parameters carry their index so the walk discovers
		// param-to-sink and param-to-result flows.
		for obj, i := range w.params {
			w.origin[obj] = paramOrigin(i)
		}
	}
	w.stmts(decl.Body.List)
	return t
}

// summarizeUnitTaint computes and exports the three summary fact
// kinds for every non-test function of the unit, iterating to a
// fixpoint so intra-package call chains summarize regardless of
// declaration order.
func summarizeUnitTaint(pass *Pass) {
	summarize(nonTestDecls(pass), func(d declTarget) bool {
		t := walkTaint(pass.Info, pass.Facts, d.decl, nil)
		key := FuncKey(d.fn)
		ptrParams := sortedKeys(t.ptrParams)
		origin := ""
		for _, i := range ptrParams {
			origin = combineOrigin(origin, t.ptrParams[i])
		}
		changed := exportOrWithdraw(pass.Facts, key, t.retOrigin != "", &UntrustedResultFact{Origin: t.retOrigin})
		changed = exportOrWithdraw(pass.Facts, key, len(ptrParams) > 0, &TaintsPtrArgsFact{Params: ptrParams, Origin: origin}) || changed
		return exportOrWithdraw(pass.Facts, key, len(t.allocParams) > 0, &ParamAllocFact{Params: sortedKeys(t.allocParams)}) || changed
	})
}

func (*taintFlow) bind(_ *flowWalker, _ []ast.Expr, _ *ast.CallExpr, o string) string {
	return o
}

func (*taintFlow) field(*flowWalker, *ast.SelectorExpr) string { return "" }

func (*taintFlow) store(_ *flowWalker, _, _ ast.Expr, _ string) {}

func (t *taintFlow) returned(_ *flowWalker, _ ast.Expr, o string) {
	if _, isParam := isParamOrigin(o); o == "" || isParam {
		return // returning a parameter is not untrusted by itself
	}
	t.retOrigin = combineOrigin(t.retOrigin, o)
}

// guard clears the taint of every object that takes part in a
// comparison inside cond: an explicit check against anything is taken
// as the bound the analyzers ask for.
func (t *taintFlow) guard(w *flowWalker, cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok {
			switch be.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
				clearTaintIn(w, be.X)
				clearTaintIn(w, be.Y)
			}
		}
		return true
	})
	// A switch tag is an implicit equality comparison.
	if _, ok := cond.(*ast.BinaryExpr); !ok {
		clearTaintIn(w, cond)
	}
}

func clearTaintIn(w *flowWalker, x ast.Expr) {
	ast.Inspect(x, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			delete(w.origin, w.objOf(id))
		}
		return true
	})
}

// bound reports a tainted index or slice bound unless the indexed
// container is a map (map reads cannot panic or allocate).
func (t *taintFlow) bound(w *flowWalker, container, b ast.Expr, o string) string {
	if _, isParam := isParamOrigin(o); !isParam && t.hooks.index != nil {
		if tv, ok := w.info.Types[container]; !ok || tv.Type == nil || !isMap(tv.Type) {
			t.hooks.index(b.Pos(), o)
		}
	}
	return o
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func (t *taintFlow) call(w *flowWalker, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.info.Uses[id].(*types.Builtin); ok {
			return t.builtin(w, b.Name(), call)
		}
	}
	callee := calleeFunc(w.info, call)

	// io read bounds get a custom walk so slice-bound taint is seen
	// in context.
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "io" {
		switch callee.Name() {
		case "ReadFull", "ReadAtLeast":
			t.readBuf(w, call)
			return ""
		case "CopyN":
			for i, a := range call.Args {
				if o := w.expr(a); i == 2 && o != "" {
					t.readBound(a.Pos(), "io.CopyN byte count", o)
				}
			}
			return ""
		}
	}

	origins := make([]string, len(call.Args))
	for i, a := range call.Args {
		origins[i] = w.expr(a)
	}
	if callee == nil {
		return ""
	}

	// binary.Read writes wire bytes through its data pointer.
	if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "encoding/binary" && callee.Name() == "Read" && len(call.Args) == 3 {
		t.taintPointee(w, call.Args[2], "encoding/binary.Read")
		return ""
	}
	if origin, ok := wireSource(callee); ok {
		return origin
	}

	// Summarized callees.
	if f, ok := t.facts.Import(callee, "taint.ptrargs"); ok {
		fact := f.(*TaintsPtrArgsFact)
		for _, idx := range fact.Params {
			lo, hi := paramArgs(callee, len(call.Args), idx)
			for _, a := range call.Args[lo:hi] {
				t.taintPointee(w, a, viaOrigin(fact.Origin, callee.Name()))
			}
		}
	}
	if f, ok := t.facts.Import(callee, "taint.paramalloc"); ok {
		for _, idx := range f.(*ParamAllocFact).Params {
			lo, hi := paramArgs(callee, len(call.Args), idx)
			for i := lo; i < hi; i++ {
				if origins[i] == "" {
					continue
				}
				if pi, isParam := isParamOrigin(origins[i]); isParam {
					t.allocParams[pi] = true
				} else if t.hooks.paramAlloc != nil {
					t.hooks.paramAlloc(call.Args[i].Pos(), callee, origins[i])
				}
			}
		}
	}
	if f, ok := t.facts.Import(callee, "taint.result"); ok {
		return viaOrigin(f.(*UntrustedResultFact).Origin, callee.Name())
	}
	return ""
}

// paramArgs returns the index range [lo, hi) of the call arguments
// that feed callee parameter idx, folding the variadic tail.
func paramArgs(callee *types.Func, nargs, idx int) (lo, hi int) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return 0, 0
	}
	n := sig.Params().Len()
	if sig.Variadic() && idx == n-1 {
		if nargs < n {
			return 0, 0
		}
		return n - 1, nargs
	}
	if idx < nargs {
		return idx, idx + 1
	}
	return 0, 0
}

// taintPointee taints the object behind a pointer argument (&x or a
// pointer-typed variable), recording a ptr-param summary when the
// pointer itself derives from a parameter.
func (t *taintFlow) taintPointee(w *flowWalker, a ast.Expr, origin string) {
	root := rootObjOf(w.info, a)
	if root == nil {
		return
	}
	idx, isParam := isParamOrigin(w.origin[root])
	if !isParam && t.summary {
		idx, isParam = w.params[root]
	}
	if isParam {
		t.ptrParams[idx] = combineOrigin(t.ptrParams[idx], origin)
		return
	}
	w.join(root, origin)
}

func (t *taintFlow) builtin(w *flowWalker, name string, call *ast.CallExpr) string {
	switch name {
	case "make":
		for _, a := range call.Args[1:] {
			if o := w.expr(a); o != "" {
				if pi, isParam := isParamOrigin(o); isParam {
					t.allocParams[pi] = true
				} else if t.hooks.makeSize != nil {
					t.hooks.makeSize(a.Pos(), o)
				}
			}
		}
		return ""
	case "len", "cap", "min":
		// The length of an existing object is bounded by the memory
		// already backing it, and min(tainted, cap) is the bounding
		// idiom: both launder taint.
		for _, a := range call.Args {
			w.expr(a)
		}
		return ""
	}
	origin := ""
	for _, a := range call.Args {
		origin = combineOrigin(origin, w.expr(a))
	}
	switch name {
	case "append":
		if n := len(w.loops); n > 0 && t.hooks.loopAppend != nil {
			t.hooks.loopAppend(call.Pos(), w.loops[n-1])
		}
	case "panic", "copy", "clear", "delete", "print", "println":
		return ""
	}
	return origin
}

// readBuf walks io.ReadFull/io.ReadAtLeast, reporting tainted bounds
// of the buffer being read into.
func (t *taintFlow) readBuf(w *flowWalker, call *ast.CallExpr) {
	for i, a := range call.Args {
		s, ok := ast.Unparen(a).(*ast.SliceExpr)
		if i != 1 || !ok {
			w.expr(a)
			continue
		}
		w.expr(s.X)
		for _, b := range []ast.Expr{s.Low, s.High, s.Max} {
			if b == nil {
				continue
			}
			if o := w.expr(b); o != "" {
				t.readBound(b.Pos(), "io read buffer bound", o)
			}
		}
	}
}

func (t *taintFlow) readBound(pos token.Pos, what, origin string) {
	if _, isParam := isParamOrigin(origin); !isParam && t.hooks.readBound != nil {
		t.hooks.readBound(pos, what, origin)
	}
}

// wireSource designates the calls whose results are untrusted wire
// bytes: encoding/binary integer reads, bitio bit reads, and huffman
// symbol decodes.
func wireSource(f *types.Func) (string, bool) {
	pkg := f.Pkg()
	if pkg == nil {
		return "", false
	}
	path, name := pkg.Path(), f.Name()
	switch {
	case path == "encoding/binary":
		if strings.HasPrefix(name, "Uint") || strings.HasPrefix(name, "ReadUvarint") || strings.HasPrefix(name, "ReadVarint") || strings.HasPrefix(name, "Varint") || strings.HasPrefix(name, "Uvarint") {
			return "encoding/binary." + name, true
		}
	case path == "bitio" || strings.HasSuffix(path, "/bitio"):
		switch name {
		case "ReadBits", "ReadBit", "Peek":
			return "bitio." + name, true
		}
	case path == "huffman" || strings.HasSuffix(path, "/huffman"):
		if strings.HasPrefix(name, "Decode") {
			return "huffman-decoded symbol (" + name + ")", true
		}
	}
	return "", false
}
