package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the ordered statement walk shared by the concurrency
// analyzers: lockorder, chansafety, deadwait and ctxflow. It visits one
// function body in evaluation order and owns what the four have in
// common:
//
//   - the order: every statement, and every operand before the
//     operation it feeds (a call's function operand and arguments
//     before the call, a select's channels and sent values before the
//     select, a go or defer statement's operands at the statement);
//   - branch scoping: the rules' path state is saved before each if,
//     case, comm-clause and loop body and restored after it, so state
//     built in one branch leaks neither into its siblings nor past the
//     construct;
//   - loop nesting: the enclosing for and range statements;
//   - function literals: each body is walked where it appears, a
//     literal called on the spot inline, any other (a go or defer body,
//     a literal stored, passed or returned) in the mode the rules pick.
//
// The rules (orderRules) supply only what the operations mean to one
// analyzer.

// litKind is the position a function literal appears in.
type litKind int

const (
	litGo    litKind = iota // go func() { ... }()
	litDefer                // defer func() { ... }()
	litCall                 // func() { ... }() inside an expression
	litValue                // any other literal: stored, passed, returned
)

// litMode is how the walk treats the body of a function literal that
// is not called on the spot.
type litMode int

const (
	litSkip   litMode = iota // not walked
	litInline                // walked with the current path state and loops
	litFresh                 // its own order domain: fresh path state, no loops
)

// orderRules is what one analyzer makes of the ordered walk.
type orderRules interface {
	// visit sees one operation after its operands: a call, a receive,
	// a composite literal, or a send, return, go or defer statement;
	// a range over a channel and a select before their bodies.
	visit(w *orderWalk, n ast.Node)
	// lits picks how the body of a literal that is not called on the
	// spot is walked.
	lits() litMode
	// branch saves the path state and returns the func restoring it.
	branch() (restore func())
	// fresh swaps in an empty path state for lit's body and returns
	// the func restoring the caller's.
	fresh(lit *ast.FuncLit) (restore func())
}

// stateless is embedded by rules that keep no path state.
type stateless struct{}

func (stateless) branch() func()            { return func() {} }
func (stateless) fresh(*ast.FuncLit) func() { return func() {} }

// orderWalk is one walk of a function body under a set of rules.
type orderWalk struct {
	info  *types.Info
	rules orderRules
	// loops holds the enclosing for and range statements, innermost
	// last.
	loops []ast.Stmt
	// inLit is the innermost literal whose body is being walked (nil in
	// the declaration's own body); spawn is the go statement's literal
	// whose body is being walked (nil outside one); deferred is set
	// inside a deferred literal.
	inLit    *ast.FuncLit
	spawn    *ast.FuncLit
	deferred bool
}

// walkOrdered walks body under rules.
func walkOrdered(info *types.Info, body *ast.BlockStmt, rules orderRules) {
	w := &orderWalk{info: info, rules: rules}
	w.stmts(body.List)
}

func (w *orderWalk) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *orderWalk) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		w.exprs(s.Rhs)
		w.exprs(s.Lhs)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(vs.Values)
				}
			}
		}
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
		w.rules.visit(w, s)
	case *ast.ReturnStmt:
		w.exprs(s.Results)
		w.rules.visit(w, s)
	case *ast.GoStmt:
		w.call(s, s.Call, litGo)
	case *ast.DeferStmt:
		w.call(s, s.Call, litDefer)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.branch(func() { w.stmts(s.Body.List) })
		w.branch(func() { w.stmt(s.Else) })
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.loop(s, func() {
			w.stmts(s.Body.List)
			w.stmt(s.Post)
		})
	case *ast.RangeStmt:
		w.expr(s.X)
		if tv, ok := w.info.Types[s.X]; ok && isChanType(tv.Type) {
			w.rules.visit(w, s)
		}
		w.loop(s, func() {
			w.expr(s.Key)
			w.expr(s.Value)
			w.stmts(s.Body.List)
		})
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		w.clauses(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.clauses(s.Body)
	case *ast.SelectStmt:
		// A select evaluates every case's channel and sent value on
		// entry; the communications themselves are the select's.
		for _, c := range s.Body.List {
			ch, value := selectComm(c.(*ast.CommClause).Comm)
			w.expr(ch)
			w.expr(value)
		}
		w.rules.visit(w, s)
		w.clauses(s.Body)
	}
}

// branch walks one branch body under the rules' branch scoping.
func (w *orderWalk) branch(walk func()) {
	restore := w.rules.branch()
	walk()
	restore()
}

// loop walks a loop body as a branch with s on the loop stack.
func (w *orderWalk) loop(s ast.Stmt, walk func()) {
	w.loops = append(w.loops, s)
	w.branch(walk)
	w.loops = w.loops[:len(w.loops)-1]
}

// clauses walks each case or comm clause of a switch, type switch or
// select as its own branch: a case's expressions, then its body.
func (w *orderWalk) clauses(body *ast.BlockStmt) {
	for _, c := range body.List {
		w.branch(func() {
			switch c := c.(type) {
			case *ast.CaseClause:
				w.exprs(c.List)
				w.stmts(c.Body)
			case *ast.CommClause:
				w.stmts(c.Body)
			}
		})
	}
}

// call walks a call's function operand and arguments, then a literal
// callee's body, then lets the rules see n: the call itself, or the go
// or defer statement around it.
func (w *orderWalk) call(n ast.Node, call *ast.CallExpr, kind litKind) {
	lit, isLit := ast.Unparen(call.Fun).(*ast.FuncLit)
	if !isLit {
		w.expr(call.Fun)
	}
	w.exprs(call.Args)
	if isLit {
		w.lit(lit, kind)
	}
	w.rules.visit(w, n)
}

// lit walks the body of a function literal in position kind: inline
// when it is called on the spot, else in the mode the rules pick.
func (w *orderWalk) lit(lit *ast.FuncLit, kind litKind) {
	mode := litInline
	if kind != litCall {
		mode = w.rules.lits()
	}
	if mode == litSkip {
		return
	}
	loops, inLit, spawn, deferred := w.loops, w.inLit, w.spawn, w.deferred
	w.inLit = lit
	switch kind {
	case litGo:
		w.spawn, w.deferred = lit, false
	case litDefer:
		w.deferred = true
	}
	if mode == litFresh {
		w.loops = nil
		defer w.rules.fresh(lit)()
	}
	w.stmts(lit.Body.List)
	w.loops, w.inLit, w.spawn, w.deferred = loops, inLit, spawn, deferred
}

func (w *orderWalk) exprs(list []ast.Expr) {
	for _, x := range list {
		w.expr(x)
	}
}

func (w *orderWalk) expr(x ast.Expr) {
	switch x := x.(type) {
	case *ast.CallExpr:
		w.call(x, x, litCall)
	case *ast.FuncLit:
		w.lit(x, litValue)
	case *ast.UnaryExpr:
		w.expr(x.X)
		if x.Op == token.ARROW {
			w.rules.visit(w, x)
		}
	case *ast.CompositeLit:
		w.exprs(x.Elts)
		w.rules.visit(w, x)
	case *ast.KeyValueExpr:
		w.expr(x.Key)
		w.expr(x.Value)
	case *ast.BinaryExpr:
		w.expr(x.X)
		w.expr(x.Y)
	case *ast.ParenExpr:
		w.expr(x.X)
	case *ast.StarExpr:
		w.expr(x.X)
	case *ast.SelectorExpr:
		w.expr(x.X)
	case *ast.IndexExpr:
		w.expr(x.X)
		w.expr(x.Index)
	case *ast.IndexListExpr:
		w.expr(x.X)
	case *ast.SliceExpr:
		w.expr(x.X)
		w.expr(x.Low)
		w.expr(x.High)
		w.expr(x.Max)
	case *ast.TypeAssertExpr:
		w.expr(x.X)
	}
}

// selectComm splits a select case's communication into its channel
// and, for a send, the value sent; both are nil for the default case.
func selectComm(comm ast.Stmt) (ch, value ast.Expr) {
	switch comm := comm.(type) {
	case *ast.SendStmt:
		return comm.Chan, comm.Value
	case *ast.ExprStmt:
		return recvChan(comm.X), nil
	case *ast.AssignStmt:
		if len(comm.Rhs) == 1 {
			return recvChan(comm.Rhs[0]), nil
		}
	}
	return nil, nil
}

// recvChan returns the channel x receives from, or nil when x is not
// a receive.
func recvChan(x ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(x).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X
	}
	return nil
}
