package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ctxflow enforces the cancellation contracts the arcd serving layer
// will rely on:
//
//  1. an exported API whose synchronous flow blocks indefinitely
//     (plain channel send/receive, range over a channel, a Wait that
//     is not a local fork-join) must give callers a way out — a
//     context.Context or done-channel reachable through its
//     parameters or receiver;
//  2. a spawned goroutine must not loop forever with no cancellation
//     signal (no channel operation, select, return, or break in the
//     loop);
//  3. context.Context does not belong in struct fields — contexts
//     are call-scoped and must flow through parameters;
//  4. a function that takes a context must let its cancellation
//     reach the goroutines it spawns.
//
// The blocking set is deliberately narrower than lockorder's: select
// statements are excluded (a multi-case select normally encodes the
// cancellation path already) and interface I/O is excluded (Go I/O
// carries no context by design; callers bound it with deadlines).

// CtxBlockFact carries the unbounded blocking operations a function
// performs on its caller's goroutine, for propagation to exported
// entry points in dependent packages.
type CtxBlockFact struct {
	Ops []BlockSite `json:"ops"`
}

func (*CtxBlockFact) FactName() string { return "ctxflow.blocks" }

// maxCtxOps bounds the per-function op sample, mirroring panicfact.
const maxCtxOps = 6

func init() {
	RegisterFactType(func() Fact { return new(CtxBlockFact) })
	Register(&Analyzer{
		Name: "ctxflow",
		Doc: "cancellation contract violation: an exported API blocks with no context.Context or done-channel " +
			"for callers to cancel it, a goroutine loops forever with no cancellation signal, a context is " +
			"stored in a struct field, or a context-taking function spawns goroutines its cancellation cannot reach",
		Run: runCtxFlow,
	})
}

// ctxCollect is the synchronous-flow summary of one body: blocking
// operations and the calls whose callee facts must be merged. It
// walks only what runs on the function's own goroutine: go and defer
// bodies and literals that are not called on the spot are skipped,
// and a select's communications are the select's (an op inside a
// select has siblings that can unblock it).
type ctxCollect struct {
	stateless
	pass  *Pass
	body  *ast.BlockStmt
	ops   []BlockSite
	calls []*ast.CallExpr
}

// ctxSyncFlow collects the synchronous flow of one function body.
func ctxSyncFlow(pass *Pass, body *ast.BlockStmt) *ctxCollect {
	c := &ctxCollect{pass: pass, body: body}
	walkOrdered(pass.Info, body, c)
	return c
}

func (c *ctxCollect) lits() litMode { return litSkip }

func (c *ctxCollect) visit(_ *orderWalk, n ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		c.calls = append(c.calls, n)
		// Interface I/O and io helpers are excluded here.
		switch what, _ := blockingCall(c.pass.Info, n); what {
		case "sync.WaitGroup.Wait":
			if !localForkJoinWait(c.pass.Info, c.body, n) {
				c.op(n.Pos(), what)
			}
		case "sync.Cond.Wait":
			c.op(n.Pos(), what)
		}
	case *ast.UnaryExpr:
		if !localJoinReceive(c.pass.Info, c.body, n.X) {
			c.op(n.Pos(), "channel receive")
		}
	case *ast.SendStmt:
		c.op(n.Pos(), "channel send")
	case *ast.RangeStmt:
		c.op(n.Pos(), "range over channel")
	}
}

func (c *ctxCollect) op(pos token.Pos, what string) {
	p := c.pass.Fset.Position(pos)
	c.ops = append(c.ops, BlockSite{File: p.Filename, Line: p.Line, Col: p.Column, What: what})
}

// funcCarriesCancel reports whether callers of fn hold a cancellation
// affordance: a context or channel reachable through a parameter or
// the receiver.
func funcCarriesCancel(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Recv() != nil && carriesCancel(sig.Recv().Type(), 0) {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if carriesCancel(sig.Params().At(i).Type(), 0) {
			return true
		}
	}
	return false
}

func runCtxFlow(pass *Pass) error {
	targets := nonTestDecls(pass)

	// Fixpoint on blocking-op facts. Ops of a callee whose receiver
	// carries a cancellation affordance are not propagated: that
	// callee's blocking is governed by its own type's protocol (e.g.
	// a pipeline's internal drain), so wrappers above it are not
	// holding their caller hostage.
	flows := map[*ast.FuncDecl]*ctxCollect{}
	for _, t := range targets {
		flows[t.decl] = ctxSyncFlow(pass, t.decl.Body)
	}
	summarize(targets, func(t declTarget) bool {
		flow := flows[t.decl]
		merged := map[string]BlockSite{}
		for _, op := range flow.ops {
			merged[op.key()] = op
		}
		for _, call := range flow.calls {
			callee := calleeFunc(pass.Info, call)
			if callee == nil || funcCarriesCancel(callee) {
				continue
			}
			f, ok := pass.Facts.Import(callee, "ctxflow.blocks")
			if !ok {
				continue
			}
			mergeBlockSites(merged, FuncKey(callee), f.(*CtxBlockFact).Ops)
		}
		present := len(merged) > 0
		fact := &CtxBlockFact{}
		if present {
			for _, op := range merged {
				fact.Ops = append(fact.Ops, op)
			}
			sortBlockSites(fact.Ops)
			if len(fact.Ops) > maxCtxOps {
				fact.Ops = fact.Ops[:maxCtxOps]
			}
		}
		return exportOrWithdraw(pass.Facts, FuncKey(t.fn), present, fact)
	})

	// Rule 1: exported, affordance-free, blocking.
	reported := map[string]bool{}
	for _, t := range targets {
		if !t.fn.Exported() || funcCarriesCancel(t.fn) {
			continue
		}
		f, ok := pass.Facts.Import(t.fn, "ctxflow.blocks")
		if !ok {
			continue
		}
		for _, op := range f.(*CtxBlockFact).Ops {
			if reported[op.key()] {
				continue
			}
			reported[op.key()] = true
			via := ""
			if op.Via != "" {
				via = " (via " + op.Via + ")"
			}
			pass.ReportAt(token.Position{Filename: op.File, Line: op.Line, Column: op.Col},
				"exported %s blocks on %s%s with no cancellation affordance: callers cannot abandon the call — thread a context.Context or done-channel",
				t.fn.Name(), op.What, via)
		}
	}

	// Rules 2 and 4: spawned goroutines.
	for _, t := range targets {
		checkSpawns(pass, t)
	}

	// Rule 3: contexts stored in structs.
	for _, file := range pass.Files {
		if isTestFilename(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				if tv, ok := pass.Info.Types[fld.Type]; ok && isContextType(tv.Type) {
					pass.Reportf(fld.Pos(), "context.Context stored in a struct field: contexts are call-scoped — accept one per call instead of freezing a lifetime into the value")
				}
			}
			return true
		})
	}
	return nil
}

// checkSpawns applies the goroutine rules to one declaration: an
// uncancellable infinite loop in a spawned body (rule 2), and a
// context parameter whose cancellation never reaches the spawned
// work (rule 4).
func checkSpawns(pass *Pass, t declTarget) {
	sig := t.fn.Type().(*types.Signature)
	var ctxParam types.Object
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			ctxParam = sig.Params().At(i)
			break
		}
	}
	ast.Inspect(t.decl.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		if loop := uncancellableLoop(pass, lit.Body); loop != nil {
			pass.Reportf(loop.Pos(), "goroutine loops forever with no cancellation signal: no channel operation, select, return, or break can stop it — give it a done-channel or context")
		}
		if ctxParam != nil && !usesObject(pass.Info, lit.Body, ctxParam) && !hasChanOp(pass.Info, lit.Body) {
			pass.Reportf(g.Pos(), "cancellation does not reach this goroutine: %s's context is never consulted by the spawned work and it watches no channel", t.fn.Name())
		}
		return true
	})
}

// uncancellableLoop finds a `for {}`-style loop directly in body (not
// in nested literals) containing no exit or signal: no channel op,
// select, return, or break.
func uncancellableLoop(pass *Pass, body *ast.BlockStmt) *ast.ForStmt {
	var found *ast.ForStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		exits := false
		ast.Inspect(loop.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SendStmt, *ast.SelectStmt, *ast.ReturnStmt:
				exits = true
			case *ast.BranchStmt:
				if m.Tok == token.BREAK || m.Tok == token.GOTO {
					exits = true
				}
			case *ast.UnaryExpr:
				if m.Op == token.ARROW {
					exits = true
				}
			case *ast.RangeStmt:
				if tv, ok := pass.Info.Types[m.X]; ok && isChanType(tv.Type) {
					exits = true
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok && id.Name == "panic" && isBuiltin(pass.Info, id) {
					exits = true
				}
			}
			return !exits
		})
		if !exits {
			found = loop
		}
		return true
	})
	return found
}

func usesObject(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}

func hasChanOp(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok && isChanType(tv.Type) {
				found = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && isBuiltin(info, id) {
				found = true
			}
		}
		return !found
	})
	return found
}
