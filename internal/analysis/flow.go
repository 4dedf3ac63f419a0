package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// This file is the def-use walk shared by the flow analyzers. Within
// one function it walks statements in order, keeping an origin map:
// for each root object (the variable behind x, x.f, x[i], *x) a short
// description of where the value it holds came from, or nothing when
// it is clean. The walk knows no sources, sanitizers or sinks of its
// own; a flowPolicy supplies them:
//
//   - taint (taint.go): values decoded from wire bytes, cleared by any
//     comparison, must not reach an allocation size, an io read bound
//     or an index (allocguard, panicfact)
//   - integrity (integrityflow.go): bytes read from storage or the
//     wire, cleared by a checksum compare or a checked verifier, must
//     not escape through an exported return, a response payload or a
//     cache insert (integrityflow)
//
// Assigning to a whole variable replaces its origin, so overwriting it
// with a clean value launders it; storing into an element or field
// only adds to the root's origin, and compound assignments (x += y)
// only ever add.

// A summary walk seeds each parameter with a param origin naming its
// index, so it can tell which parameters reach a sink or a result.
const paramOriginPrefix = "\x00param#"

func paramOrigin(i int) string { return fmt.Sprintf("%s%d", paramOriginPrefix, i) }

func isParamOrigin(o string) (int, bool) {
	if !strings.HasPrefix(o, paramOriginPrefix) {
		return 0, false
	}
	i, err := strconv.Atoi(strings.TrimPrefix(o, paramOriginPrefix))
	if err != nil {
		return 0, false
	}
	return i, true
}

// combineOrigin joins two origins, preferring a concrete origin over
// a parameter-derived one so reports name the source.
func combineOrigin(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	if _, ap := isParamOrigin(a); ap {
		if _, bp := isParamOrigin(b); !bp {
			return b
		}
	}
	return a
}

// A flowPolicy gives the flow walk its sources, sanitizers and sinks.
type flowPolicy interface {
	// call evaluates a call that is not a conversion, walking its
	// arguments through w.expr, and returns its result's origin.
	call(w *flowWalker, call *ast.CallExpr) string
	// bind returns the origin lhs receive from call, whose walk
	// returned o, when the call is the right-hand side of lhs.
	bind(w *flowWalker, lhs []ast.Expr, call *ast.CallExpr, o string) string
	// field returns the origin of a selector that is itself a source,
	// or "".
	field(w *flowWalker, sel *ast.SelectorExpr) string
	// guard applies the sanitizers of an if condition, a switch tag or
	// a tagless case expression.
	guard(w *flowWalker, cond ast.Expr)
	// bound sees origin o used as index or slice bound b of container
	// and returns the part of o that an indexed element carries.
	bound(w *flowWalker, container, b ast.Expr, o string) string
	// store sees origin o assigned from rhs into lhs.
	store(w *flowWalker, lhs, rhs ast.Expr, o string)
	// returned sees one returned value r with origin o; r is nil for
	// a named result of a bare return.
	returned(w *flowWalker, r ast.Expr, o string)
}

// flowWalker walks one function declaration under a policy.
type flowWalker struct {
	info *types.Info
	pol  flowPolicy
	// passes is how many times each loop body is walked: a second pass
	// lets state reaching the loop tail feed the head.
	passes int

	origin map[types.Object]string
	// params maps the parameter objects (receiver excluded) to their
	// index; results lists the named results, for bare returns.
	params  map[types.Object]int
	results []types.Object
	// loops holds the trip-count origins of the enclosing loops whose
	// trip count has one, innermost last.
	loops []string
	// lit is the innermost function literal being walked, nil in the
	// declaration's own body.
	lit *ast.FuncLit
}

func newFlowWalker(info *types.Info, decl *ast.FuncDecl, pol flowPolicy, passes int) *flowWalker {
	w := &flowWalker{
		info:   info,
		pol:    pol,
		passes: passes,
		origin: map[types.Object]string{},
		params: map[types.Object]int{},
	}
	idx := 0
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				w.params[obj] = idx
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	if decl.Type.Results != nil {
		for _, field := range decl.Type.Results.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					w.results = append(w.results, obj)
				}
			}
		}
	}
	return w
}

// objOf resolves an identifier to the object it uses or defines.
func (w *flowWalker) objOf(id *ast.Ident) types.Object {
	if obj := w.info.Uses[id]; obj != nil {
		return obj
	}
	return w.info.Defs[id]
}

// join adds origin o to obj's.
func (w *flowWalker) join(obj types.Object, o string) {
	if obj != nil && o != "" {
		w.origin[obj] = combineOrigin(w.origin[obj], o)
	}
}

// ---- statement walk ----

func (w *flowWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *flowWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		w.assign(s.Lhs, s.Rhs, s.Tok)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					w.assign(lhs, vs.Values, token.DEFINE)
				}
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		w.pol.guard(w, s.Cond)
		w.stmts(s.Body.List)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
			w.pol.guard(w, s.Tag)
		}
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CaseClause)
			for _, c := range cc.List {
				w.expr(c)
				if s.Tag == nil {
					w.pol.guard(w, c)
				}
			}
			w.stmts(cc.Body)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.stmt(s.Assign)
		for _, clause := range s.Body.List {
			w.stmts(clause.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			if cc.Comm != nil {
				w.stmt(cc.Comm)
			}
			w.stmts(cc.Body)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		trips := w.tripOrigin(s.Cond)
		w.expr(s.Cond)
		w.loop(trips, s.Body, s.Post)
	case *ast.RangeStmt:
		o := w.expr(s.X)
		// Ranging over an integer runs that many trips, and the key
		// counts them.
		trips := ""
		if tv, ok := w.info.Types[s.X]; ok && tv.Type != nil {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				trips = o
			}
		}
		if s.Key != nil {
			w.assignTo(s.Key, s.X, trips)
		}
		if s.Value != nil {
			w.assignTo(s.Value, s.X, o)
		}
		w.loop(trips, s.Body, nil)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.pol.returned(w, r, w.expr(r))
		}
		if len(s.Results) == 0 {
			for _, obj := range w.results {
				w.pol.returned(w, nil, w.origin[obj])
			}
		}
	case *ast.GoStmt:
		w.expr(s.Call)
	case *ast.DeferStmt:
		w.expr(s.Call)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

// loop walks a loop body (and post statement) w.passes times with
// trips, when set, on the enclosing-loop stack.
func (w *flowWalker) loop(trips string, body *ast.BlockStmt, post ast.Stmt) {
	if trips != "" {
		w.loops = append(w.loops, trips)
		defer func() { w.loops = w.loops[:len(w.loops)-1] }()
	}
	for i := 0; i < w.passes; i++ {
		w.stmts(body.List)
		if post != nil {
			w.stmt(post)
		}
	}
}

// tripOrigin reports the origin of the values a loop condition
// compares (`i < n` with n decoded from the wire), which marks the
// loop as running an untrusted number of trips. Parameter origins do
// not count: a summary cannot tell what its callers pass.
func (w *flowWalker) tripOrigin(cond ast.Expr) string {
	origin := ""
	if cond == nil {
		return origin
	}
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := w.origin[w.objOf(id)]; o != "" {
				if _, isParam := isParamOrigin(o); !isParam {
					origin = combineOrigin(origin, o)
				}
			}
		}
		return true
	})
	return origin
}

func (w *flowWalker) assign(lhs, rhs []ast.Expr, tok token.Token) {
	adds := tok != token.ASSIGN && tok != token.DEFINE
	if len(rhs) == 1 {
		o := w.value(lhs, rhs[0])
		for _, l := range lhs {
			if o != "" || !adds {
				w.assignTo(l, rhs[0], o)
			}
		}
		return
	}
	for i, r := range rhs {
		if o := w.value(lhs[i:i+1], r); o != "" || !adds {
			w.assignTo(lhs[i], r, o)
		}
	}
}

// value walks rhs, letting the policy bind a call's results to lhs.
func (w *flowWalker) value(lhs []ast.Expr, rhs ast.Expr) string {
	o := w.expr(rhs)
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		o = w.pol.bind(w, lhs, call, o)
	}
	return o
}

// assignTo records origin o flowing from rhs into lhs.
func (w *flowWalker) assignTo(lhs, rhs ast.Expr, o string) {
	if isBlank(lhs) {
		return
	}
	w.pol.store(w, lhs, rhs, o)
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if obj := w.objOf(id); obj != nil {
			if o == "" {
				delete(w.origin, obj)
			} else {
				w.origin[obj] = o
			}
		}
		return
	}
	w.join(rootObjOf(w.info, lhs), o)
}

// rootObjOf resolves the base identifier of a selector/index/deref
// chain (h.EncLen -> h, buf[i] -> buf, &x -> x).
func rootObjOf(info *types.Info, x ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(x).(type) {
		case *ast.Ident:
			if obj := info.Uses[v]; obj != nil {
				if _, isPkg := obj.(*types.PkgName); isPkg {
					return nil
				}
				return obj
			}
			return info.Defs[v]
		case *ast.SelectorExpr:
			x = v.X
		case *ast.IndexExpr:
			x = v.X
		case *ast.StarExpr:
			x = v.X
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return nil
			}
			x = v.X
		case *ast.SliceExpr:
			x = v.X
		default:
			return nil
		}
	}
}

// ---- expression walk ----

// expr walks x, letting the policy fire its sinks, and returns the
// origin of the value x evaluates to ("" when clean).
func (w *flowWalker) expr(x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		return w.origin[w.objOf(x)]
	case *ast.CallExpr:
		// A conversion carries its operand: int(rd.u32()) is just as
		// untrusted as the u32.
		if tv, ok := w.info.Types[x.Fun]; ok && tv.IsType() {
			if len(x.Args) == 1 {
				return w.expr(x.Args[0])
			}
			return ""
		}
		return w.pol.call(w, x)
	case *ast.BinaryExpr:
		lo := w.expr(x.X)
		ro := w.expr(x.Y)
		switch x.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ,
			token.LAND, token.LOR:
			return "" // booleans carry neither a size nor bytes
		case token.AND, token.REM:
			// x & mask and x % modulus with a constant operand are
			// bounding idioms.
			if _, isConst := constInt(w.info, x.X); isConst {
				return ""
			}
			if _, isConst := constInt(w.info, x.Y); isConst {
				return ""
			}
		}
		return combineOrigin(lo, ro)
	case *ast.UnaryExpr:
		return w.expr(x.X)
	case *ast.StarExpr:
		return w.expr(x.X)
	case *ast.SelectorExpr:
		if o := w.pol.field(w, x); o != "" {
			return o
		}
		return w.expr(x.X)
	case *ast.IndexExpr:
		xo := w.expr(x.X)
		if io := w.expr(x.Index); io != "" {
			return combineOrigin(xo, w.pol.bound(w, x.X, x.Index, io))
		}
		return xo
	case *ast.IndexListExpr:
		return w.expr(x.X)
	case *ast.SliceExpr:
		xo := w.expr(x.X)
		for _, b := range []ast.Expr{x.Low, x.High, x.Max} {
			if b == nil {
				continue
			}
			if bo := w.expr(b); bo != "" {
				w.pol.bound(w, x.X, b, bo)
			}
		}
		return xo
	case *ast.CompositeLit:
		origin := ""
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			origin = combineOrigin(origin, w.expr(elt))
		}
		return origin
	case *ast.TypeAssertExpr:
		return w.expr(x.X)
	case *ast.FuncLit:
		outer := w.lit
		w.lit = x
		w.stmts(x.Body.List)
		w.lit = outer
	}
	return ""
}

// isBlank reports whether x is the blank identifier.
func isBlank(x ast.Expr) bool {
	id, ok := ast.Unparen(x).(*ast.Ident)
	return ok && id.Name == "_"
}
