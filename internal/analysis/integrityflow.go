package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// integrityflow tracks the verification state of untrusted bytes and
// enforces ARC's end-to-end integrity contract: data that enters from
// storage (an abstract ReaderAt) or the wire (a frame payload) is
// "unverified" until it flows through a recognized sanitizer — a CRC
// comparison, a checked decode/parse, or a helper carrying an
// integrity.verifies fact. Unverified bytes must not escape through
// an exported API return, a service response payload, or a cache
// insert; and a computed verification result (an ecc repair Report or
// a verifier's error) must not be discarded while its siblings are
// used. The check is the integrity policy of the def-use flow walk
// (flow.go). Helper summaries cross package boundaries as facts:
//
//	integrity.verifies — the function verifies the bytes behind the
//	    listed parameter indices before returning without error
//	integrity.escapes  — the function's byte results are unverified
//	    (callers inherit the origin)

// VerifiesFact marks a function that verifies the byte content behind
// the listed parameters (zero-based, receiver excluded) before it
// returns without error. Callers may treat those argument roots as
// verified once they have checked the function's error.
type VerifiesFact struct {
	Params []int `json:"params"`
}

func (*VerifiesFact) FactName() string { return "integrity.verifies" }

// EscapesFact marks a function whose byte-slice results are
// unverified; Origin describes where the bytes entered.
type EscapesFact struct {
	Result bool   `json:"result"`
	Origin string `json:"origin"`
}

func (*EscapesFact) FactName() string { return "integrity.escapes" }

func init() {
	RegisterFactType(func() Fact { return new(VerifiesFact) })
	RegisterFactType(func() Fact { return new(EscapesFact) })
	Register(&Analyzer{
		Name: "integrityflow",
		Doc: "unverified bytes from storage or the wire escape through an exported API return, a service " +
			"response payload, or a cache insert without passing a CRC comparison or checked decode; or a " +
			"verification result (repair report, verifier error) is computed and then discarded",
		Run: runIntegrityFlow,
	})
}

// verifierPrefixes are callee-name prefixes treated as sanitizers
// when the call's error result is bound and (presumably) checked.
var verifierPrefixes = []string{
	"Decode", "decode", "Unmarshal", "unmarshal", "Parse", "parse",
	"Verify", "verify", "Validate", "validate", "Check", "check",
}

func isVerifierName(name string) bool {
	for _, p := range verifierPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// checksumNames match callables whose results, compared against an
// expected value, constitute a verification of their input bytes.
var checksumNames = []string{"CRC", "Checksum", "Sum", "Digest", "Hash"}

func isChecksumName(name string) bool {
	for _, s := range checksumNames {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

const (
	storageOriginPrefix = "storage bytes"
	wireOriginPrefix    = "wire bytes"
)

// wireOrigin reports whether the origin class is wire (frame payload)
// rather than storage. Wire payloads are by-design unverified until a
// decode, so the exported-return sink only fires for storage bytes.
func wireOrigin(origin string) bool { return strings.HasPrefix(origin, wireOriginPrefix) }

func runIntegrityFlow(pass *Pass) error {
	// Summaries first: intra-package helper chains need a fixpoint
	// before the reporting pass consumes their facts.
	targets := nonTestDecls(pass)
	summarize(targets, func(d declTarget) bool {
		return walkIntegrity(pass, d, false).export()
	})
	for _, d := range targets {
		walkIntegrity(pass, d, true)
	}
	return nil
}

// integrityFlow is the integrity policy of the flow walk. An origin
// marks a root object holding unverified bytes: once buf passes a CRC
// check, buf.b and buf[i:j] are verified too.
type integrityFlow struct {
	pass   *Pass
	fn     *types.Func
	report bool

	// verifiedParams are the parameter indices verified in the body,
	// for VerifiesFact.
	verifiedParams map[int]bool
	// escapeOrigin records the first unverified origin returned, for
	// EscapesFact.
	escapeOrigin string
	// loaders are the function literals passed to a cache insert,
	// whose return values go into the cache.
	loaders map[*ast.FuncLit]bool
	// reported dedups diagnostics: loop bodies are walked twice.
	reported map[string]bool
}

// walkIntegrity runs the integrity policy over one declaration,
// reporting findings when report is set.
func walkIntegrity(pass *Pass, d declTarget, report bool) *integrityFlow {
	p := &integrityFlow{
		pass:           pass,
		fn:             d.fn,
		report:         report,
		verifiedParams: map[int]bool{},
		loaders:        map[*ast.FuncLit]bool{},
		reported:       map[string]bool{},
	}
	newFlowWalker(pass.Info, d.decl, p, 2).stmts(d.decl.Body.List)
	return p
}

// export exports or withdraws this function's facts, reporting
// whether anything changed.
func (p *integrityFlow) export() bool {
	key := FuncKey(p.fn)
	changed := exportOrWithdraw(p.pass.Facts, key, len(p.verifiedParams) > 0, &VerifiesFact{Params: sortedKeys(p.verifiedParams)})
	// Exported functions report the escape directly; only unexported
	// helpers summarize it for their callers.
	escapes := p.escapeOrigin != "" && !p.fn.Exported()
	return exportOrWithdraw(p.pass.Facts, key, escapes, &EscapesFact{Result: true, Origin: p.escapeOrigin}) || changed
}

func (p *integrityFlow) reportf(pos token.Pos, format string, args ...any) {
	if !p.report {
		return
	}
	key := fmt.Sprintf("%d:%s", pos, fmt.Sprintf(format, args...))
	if p.reported[key] {
		return
	}
	p.reported[key] = true
	p.pass.Reportf(pos, format, args...)
}

// verify marks the bytes behind x as verified.
func (p *integrityFlow) verify(w *flowWalker, x ast.Expr) {
	root := rootObjOf(w.info, x)
	if root == nil {
		return
	}
	delete(w.origin, root)
	if i, ok := w.params[root]; ok {
		p.verifiedParams[i] = true
	}
}

func (*integrityFlow) bound(*flowWalker, ast.Expr, ast.Expr, string) string { return "" }

// returned applies the exported-API sink, the cache-insert sink
// (inside a cache loader literal), and records escapes for helper
// summaries.
func (p *integrityFlow) returned(w *flowWalker, r ast.Expr, o string) {
	if o == "" || !isByteishExpr(w.info, r) {
		return
	}
	if p.loaders[w.lit] {
		p.reportf(r.Pos(), "unverified %s inserted into cache; verify integrity before caching", o)
		return
	}
	if p.fn.Exported() && !wireOrigin(o) {
		p.reportf(r.Pos(), "unverified %s returned from exported %s; verify (CRC compare or checked decode) before returning", o, p.fn.Name())
	}
	if p.escapeOrigin == "" {
		p.escapeOrigin = o
	}
}

// bind applies the checks of `lhs... := call(...)`: discarded
// verification results and verifier sanitization.
func (p *integrityFlow) bind(w *flowWalker, lhs []ast.Expr, call *ast.CallExpr, o string) string {
	callee := calleeFunc(w.info, call)
	if callee == nil {
		return o
	}
	results := callee.Type().(*types.Signature).Results()

	// Discarded verification results. Only multi-result assignments
	// with at least one used value count: a lone `_ = f()` is an
	// explicit opt-out, and `f()` alone is uncheckederr's business.
	if p.report && len(lhs) >= 2 && len(lhs) == results.Len() && hasNonBlank(lhs) {
		for i := 0; i < results.Len(); i++ {
			if !isBlank(lhs[i]) {
				continue
			}
			rt := results.At(i).Type()
			if named, ok := derefType(rt).(*types.Named); ok && named.Obj().Name() == "Report" {
				p.reportf(lhs[i].Pos(), "repair report from %s is discarded; silent-correction counts must be surfaced or the discard waived with a justification", callee.Name())
			} else if isErrorType(rt) && isVerifierName(callee.Name()) {
				p.reportf(lhs[i].Pos(), "error from verifier %s is discarded while its other results are used; a failed verification must not go unnoticed", callee.Name())
			}
		}
	}

	// Sanitization: a verifier whose error result is bound (or that
	// has no error result) verifies its byte-slice arguments' roots.
	errIdx := -1
	for i := 0; i < results.Len(); i++ {
		if isErrorType(results.At(i).Type()) {
			errIdx = i
			break
		}
	}
	if errIdx >= 0 && (errIdx >= len(lhs) || isBlank(lhs[errIdx])) {
		return o
	}
	if f, ok := p.pass.Facts.ImportKey(FuncKey(callee), "integrity.verifies"); ok {
		for _, i := range f.(*VerifiesFact).Params {
			if i < len(call.Args) {
				p.verify(w, call.Args[i])
			}
		}
		return ""
	}
	if isVerifierName(callee.Name()) {
		for _, a := range call.Args {
			if isByteishExpr(w.info, a) {
				p.verify(w, a)
			}
		}
		return ""
	}
	return o
}

// store applies the response-payload sink: resp.payload = <unverified
// bytes>.
func (p *integrityFlow) store(w *flowWalker, lhs, rhs ast.Expr, o string) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok || o == "" || !strings.EqualFold(sel.Sel.Name, "payload") || !isByteishExpr(w.info, rhs) {
		return
	}
	if tn := namedTypeName(w.info, sel.X); strings.Contains(strings.ToLower(tn), "response") {
		p.reportf(lhs.Pos(), "unverified %s assigned to %s payload; verify integrity before building the response", o, tn)
	}
}

// guard scans a condition for CRC/checksum comparisons: a `computed
// == expected` (or !=) where one side calls a checksum function
// verifies that call's byte arguments.
func (p *integrityFlow) guard(w *flowWalker, cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		ast.Inspect(be, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeFunc(w.info, call); callee != nil && isChecksumName(callee.Name()) {
				for _, a := range call.Args {
					if isByteishExpr(w.info, a) {
						p.verify(w, a)
					}
				}
			}
			return true
		})
		return true
	})
}

// field recognizes `f.Payload` on a wire Frame as a wire-class
// source.
func (p *integrityFlow) field(w *flowWalker, sel *ast.SelectorExpr) string {
	if sel.Sel.Name == "Payload" && namedTypeName(w.info, sel.X) == "Frame" {
		return wireOriginPrefix + " from frame payload"
	}
	return ""
}

// call handles sources (abstract ReadAt), sinks (cache inserts), and
// propagation through escape facts and builtins.
func (p *integrityFlow) call(w *flowWalker, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && isBuiltin(w.info, id) {
		origin := ""
		for i, a := range call.Args {
			o := w.expr(a)
			origin = combineOrigin(origin, o)
			// copy moves the source's bytes into the destination.
			if id.Name == "copy" && i == 1 && o != "" {
				if dst := rootObjOf(w.info, call.Args[0]); dst != nil {
					w.origin[dst] = o
				}
			}
		}
		if id.Name == "append" {
			return origin
		}
		return ""
	}

	callee := calleeFunc(w.info, call)

	// Cache-insert sink: a literal passed to GetOrLoad has its return
	// values inserted; so do byte arguments to cache mutators.
	if callee != nil && isCacheInsert(callee) {
		for _, a := range call.Args {
			if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
				p.loaders[lit] = true
			}
			if o := w.expr(a); o != "" && isByteishExpr(w.info, a) {
				p.reportf(a.Pos(), "unverified %s inserted into cache; verify integrity before caching", o)
			}
		}
		return ""
	}

	for _, a := range call.Args {
		w.expr(a)
	}

	// Source: ReadAt through an interface fills its buffer with
	// unverified storage bytes. Concrete ReadAt implementations (e.g.
	// *RangeReader) verify internally and are not sources.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "ReadAt" && len(call.Args) == 2 {
		if tv, ok := w.info.Types[sel.X]; ok && tv.Type != nil && types.IsInterface(tv.Type) {
			if buf := rootObjOf(w.info, call.Args[0]); buf != nil {
				w.origin[buf] = storageOriginPrefix + " read via ReaderAt.ReadAt"
			}
		}
	}

	if callee != nil {
		if f, ok := p.pass.Facts.ImportKey(FuncKey(callee), "integrity.escapes"); ok {
			if ef := f.(*EscapesFact); ef.Result {
				return fmt.Sprintf("%s (via %s)", ef.Origin, callee.Name())
			}
		}
	}
	return ""
}

// isCacheInsert recognizes calls that place bytes into a cache: a
// GetOrLoad-style loader, or Add/Put/Insert/Store on a *Cache* type.
func isCacheInsert(callee *types.Func) bool {
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	switch callee.Name() {
	case "GetOrLoad":
		return true
	case "Add", "Put", "Insert", "Store":
		return strings.Contains(derefTypeName(sig.Recv().Type()), "Cache")
	}
	return false
}

// ---- small type helpers ----

func hasNonBlank(list []ast.Expr) bool {
	for _, x := range list {
		if !isBlank(x) {
			return true
		}
	}
	return false
}

// isByteishExpr reports whether x's static type is a byte slice (or
// named byte-slice type).
func isByteishExpr(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// derefTypeName returns the named type's name behind t (through one
// pointer), or "".
func derefTypeName(t types.Type) string {
	if named, ok := derefType(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// namedTypeName resolves the named type behind expression x (through
// pointers), or "".
func namedTypeName(info *types.Info, x ast.Expr) string {
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return ""
	}
	return derefTypeName(tv.Type)
}
