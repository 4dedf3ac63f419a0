package analysis

import (
	"go/token"
	"go/types"
)

// allocguard reports a value decoded from untrusted bytes flowing
// into an allocation size or an io read bound without an intervening
// comparison against a declared cap. One flipped header bit in a
// compressed stream must never be able to demand gigabytes before
// the decoder renders a verdict.
func init() {
	Register(&Analyzer{
		Name: "allocguard",
		Doc: "an allocation size (make length/capacity, append in a wire-counted loop) or io read bound " +
			"(io.ReadFull slice bound, io.CopyN count) derives from untrusted input — binary.*Uint*, " +
			"bitio reads, huffman-decoded symbols, or a fact-summarized call — with no bounding " +
			"comparison between the decode and the allocation",
		Run: runAllocGuard,
	})
}

func runAllocGuard(pass *Pass) error {
	// Test and fuzz harnesses allocate from their own inputs on
	// purpose, so only non-test declarations are checked.
	hooks := &taintHooks{
		makeSize: func(pos token.Pos, origin string) {
			pass.Reportf(pos, "make size derives from untrusted input (%s) without a bounding comparison", origin)
		},
		readBound: func(pos token.Pos, what, origin string) {
			pass.Reportf(pos, "%s derives from untrusted input (%s) without a bounding comparison", what, origin)
		},
		loopAppend: func(pos token.Pos, origin string) {
			pass.Reportf(pos, "append grows across a loop whose trip count derives from untrusted input (%s) without a bounding comparison", origin)
		},
		paramAlloc: func(pos token.Pos, callee *types.Func, origin string) {
			pass.Reportf(pos, "untrusted value (%s) reaches an unguarded allocation inside %s", origin, callee.Name())
		},
	}
	for _, d := range nonTestDecls(pass) {
		walkTaint(pass.Info, pass.Facts, d.decl, hooks)
	}
	return nil
}
