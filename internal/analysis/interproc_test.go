package analysis_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// analyzeResult is analyze returning the full Result (facts, graph).
func analyzeResult(t *testing.T, root string) *analysis.Result {
	t.Helper()
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := analysis.ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Run(loader, dirs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// allocGuardFixture exercises every allocguard sink, including the
// two interprocedural ones: a tainted result crossing a package
// boundary (taint.result fact) and a tainted argument reaching an
// unguarded allocation inside a callee (taint.paramalloc fact).
// Package p sorts before its dependency q in directory walk order, so
// the cross-package cases also prove the driver's topological
// ordering: q's facts must exist before p is analyzed.
var allocGuardFixture = map[string]string{
	"q/q.go": `package q

import "encoding/binary"

// WireLen decodes a length field; callers own the bound check.
func WireLen(b []byte) int { return int(binary.LittleEndian.Uint32(b)) }

// Table allocates from its argument without a bound of its own.
func Table(n int) []int { return make([]int, n) }
`,
	"p/p.go": `package p

import (
	"encoding/binary"
	"io"

	"fixture/q"
)

const maxLen = 1 << 20

func Alloc(buf []byte) []byte {
	n := binary.LittleEndian.Uint32(buf)
	return make([]byte, n) // want allocguard
}

func AllocGuarded(buf []byte) []byte {
	n := binary.LittleEndian.Uint32(buf)
	if n > maxLen {
		return nil
	}
	return make([]byte, n)
}

func CopyBound(dst io.Writer, src io.Reader, hdr []byte) {
	n := binary.LittleEndian.Uint64(hdr)
	_, _ = io.CopyN(dst, src, int64(n)) // want allocguard
}

func ReadBound(r io.Reader, buf, hdr []byte) {
	n := int(binary.LittleEndian.Uint32(hdr))
	_, _ = io.ReadFull(r, buf[:n]) // want allocguard
}

func ReadBoundGuarded(r io.Reader, buf, hdr []byte) {
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > len(buf) {
		return
	}
	_, _ = io.ReadFull(r, buf[:n])
}

func LoopAppend(hdr []byte) []int {
	n := int(binary.LittleEndian.Uint32(hdr))
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i) // want allocguard
	}
	return out
}

func AllocViaHelper(b []byte) []byte {
	return make([]byte, q.WireLen(b)) // want allocguard
}

func AllocViaHelperGuarded(b []byte) []byte {
	n := q.WireLen(b)
	if n > maxLen {
		return nil
	}
	return make([]byte, n)
}

func AllocViaParam(b []byte) []int {
	return q.Table(q.WireLen(b)) // want allocguard
}
`,
}

func TestAllocGuard(t *testing.T) {
	root := writeFixture(t, allocGuardFixture)
	checkMarkers(t, root, allocGuardFixture, analyze(t, root))
}

// deadWaitFixture seeds each deadwait finding kind next to balanced
// shapes. Its path must fall under deadwait's package restriction.
var deadWaitFixture = map[string]string{"internal/parallel/wg.go": `package parallel

import "sync"

func addInsideGoroutine(wg *sync.WaitGroup) {
	go func() {
		wg.Add(1) // want deadwait
		wg.Done()
	}()
	wg.Wait()
}

func addWithoutDone(wg *sync.WaitGroup, ch chan int) {
	wg.Add(1) // want deadwait
	go func() {
		ch <- 1
	}()
	wg.Wait()
}

func loopSpawnMismatch(wg *sync.WaitGroup, items []int) {
	wg.Add(1) // want deadwait
	for range items {
		go func() { //arcvet:ignore chansafety fixture exercises join accounting, not spawn bounds
			defer wg.Done()
		}()
	}
	wg.Wait()
}

func skippableDone(wg *sync.WaitGroup, fail bool) {
	wg.Add(1)
	go func() {
		if fail {
			return
		}
		wg.Done() // want deadwait
	}()
	wg.Wait()
}

func balanced(wg *sync.WaitGroup, items []int) {
	for range items {
		wg.Add(1)
		go func() { //arcvet:ignore chansafety fixture exercises join accounting, not spawn bounds
			defer wg.Done()
		}()
	}
	wg.Wait()
}

func addCounted(wg *sync.WaitGroup, items []int) {
	wg.Add(len(items))
	for range items {
		go func() { //arcvet:ignore chansafety fixture exercises join accounting, not spawn bounds
			defer wg.Done()
		}()
	}
	wg.Wait()
}

type pool struct {
	workers sync.WaitGroup
}

// worker's deferred Done on a receiver field becomes a
// deadwait.effects fact, so start's spawn loop below accounts as
// balanced even though no Done is syntactically visible there.
func (p *pool) worker(jobs chan int) {
	defer p.workers.Done()
	for range jobs {
	}
}

func (p *pool) start(jobs chan int, n int) {
	for i := 0; i < n; i++ {
		p.workers.Add(1)
		go p.worker(jobs)
	}
	go func() {
		p.workers.Wait()
		close(jobs)
	}()
}
`}

func TestDeadWait(t *testing.T) {
	root := writeFixture(t, deadWaitFixture)
	checkMarkers(t, root, deadWaitFixture, analyze(t, root))
}

var panicFactFixture = map[string]string{
	"inner/inner.go": `package inner

// MustPositive panics on negative input.
func MustPositive(n int) int {
	if n < 0 {
		panic("negative") // want panicfact
	}
	return n
}
`,
	"codec/codec.go": `package codec

import (
	"encoding/binary"
	"errors"

	"fixture/inner"
)

var errBad = errors.New("bad input")

// Decode reaches inner.MustPositive's panic with no recover: the
// finding lands at the panic site in the other package.
func Decode(buf []byte) int {
	return inner.MustPositive(int(binary.LittleEndian.Uint32(buf)))
}

// DecodeSafe absorbs the same panic, so it contributes no finding.
func DecodeSafe(buf []byte) (n int, err error) {
	defer func() {
		if recover() != nil {
			n, err = 0, errBad
		}
	}()
	return inner.MustPositive(int(binary.LittleEndian.Uint32(buf))), nil
}

func DecodeIndex(table []int, buf []byte) int {
	n := int(binary.LittleEndian.Uint32(buf))
	return table[n] // want panicfact
}

func DecodeIndexGuarded(table []int, buf []byte) int {
	n := int(binary.LittleEndian.Uint32(buf))
	if n < 0 || n >= len(table) {
		return 0
	}
	return table[n]
}

func DecodeAny(v any) int {
	return v.(int) // want panicfact
}

// helperPanics is not reachable from any decoder entry point, so its
// panic stays a fact, not a finding.
func helperPanics() {
	panic("internal invariant")
}
`,
}

func TestPanicFact(t *testing.T) {
	root := writeFixture(t, panicFactFixture)
	checkMarkers(t, root, panicFactFixture, analyze(t, root))
}

// TestPanicFactDeepChain reaches a panic seven same-package calls
// below a decoder whose helpers are declared caller-first, so every
// summary round lifts the may-panic fact only one level: the fact
// must reach DecodeDeep however many rounds that takes.
func TestPanicFactDeepChain(t *testing.T) {
	files := map[string]string{"deep/deep.go": `package deep

func DecodeDeep(n int) int { return h1(n) }

func h1(n int) int { return h2(n) + 1 }

func h2(n int) int { return h3(n) + 1 }

func h3(n int) int { return h4(n) + 1 }

func h4(n int) int { return h5(n) + 1 }

func h5(n int) int { return h6(n) + 1 }

func h6(n int) int { return h7(n) + 1 }

func h7(n int) int {
	if n < 0 {
		panic("negative") // want panicfact
	}
	return n
}
`}
	root := writeFixture(t, files)
	checkMarkers(t, root, files, analyze(t, root))
}

// TestWaiverStatementSpan proves the satellite fix: a directive on
// the first line of a multi-line statement (or the line above it)
// waives findings reported on the statement's continuation lines,
// while an identical unwaived statement still fires.
func TestWaiverStatementSpan(t *testing.T) {
	files := map[string]string{"sp/sp.go": `package sp

import "encoding/binary"

func waivedAbove(buf []byte) []byte {
	n := binary.LittleEndian.Uint32(buf)
	//arcvet:ignore allocguard fixture: bound enforced by the caller
	return append([]byte{},
		make([]byte, n)...)
}

func waivedOnFirstLine(buf []byte) []byte {
	n := binary.LittleEndian.Uint32(buf)
	return append([]byte{}, //arcvet:ignore allocguard fixture: bound enforced by the caller
		make([]byte, n)...)
}

func unwaived(buf []byte) []byte {
	n := binary.LittleEndian.Uint32(buf)
	return append([]byte{},
		make([]byte, n)...) // want allocguard
}
`}
	root := writeFixture(t, files)
	checkMarkers(t, root, files, analyze(t, root))
}

// TestTopoOrderAndGraph checks the call graph over the allocguard
// fixture: cross-package edges exist and reachability follows them.
func TestTopoOrderAndGraph(t *testing.T) {
	root := writeFixture(t, allocGuardFixture)
	res := analyzeResult(t, root)
	if res.Graph == nil || res.Facts == nil {
		t.Fatal("Result must expose the call graph and fact store")
	}
	node := res.Graph.Node("fixture/p.AllocViaHelper")
	if node == nil {
		t.Fatal("missing call-graph node for fixture/p.AllocViaHelper")
	}
	foundEdge := false
	for _, callee := range node.Callees {
		if callee == "fixture/q.WireLen" {
			foundEdge = true
		}
	}
	if !foundEdge {
		t.Fatalf("AllocViaHelper callees = %v, want fixture/q.WireLen", node.Callees)
	}
	reach := res.Graph.ReachableFrom("fixture/p.AllocViaParam")
	if !reach["fixture/q.Table"] {
		t.Fatal("fixture/q.Table must be reachable from fixture/p.AllocViaParam")
	}
	if reach["fixture/p.Alloc"] {
		t.Fatal("fixture/p.Alloc must not be reachable from fixture/p.AllocViaParam")
	}

	// The facts the cross-package findings relied on must be present.
	if _, ok := res.Facts.ImportKey("fixture/q.WireLen", "taint.result"); !ok {
		t.Fatal("missing taint.result fact on fixture/q.WireLen")
	}
	if _, ok := res.Facts.ImportKey("fixture/q.Table", "taint.paramalloc"); !ok {
		t.Fatal("missing taint.paramalloc fact on fixture/q.Table")
	}
}

// TestFactStoreRoundTrip pins the serialization contract: a store
// survives JSON marshal/unmarshal byte-identically.
func TestFactStoreRoundTrip(t *testing.T) {
	root := writeFixture(t, panicFactFixture)
	res := analyzeResult(t, root)
	if res.Facts.Len() == 0 {
		t.Fatal("expected exported facts")
	}
	first, err := json.Marshal(res.Facts)
	if err != nil {
		t.Fatal(err)
	}
	var back analysis.FactStore
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("fact store does not round-trip:\nfirst:  %s\nsecond: %s", first, second)
	}
	if f, ok := back.ImportKey("fixture/inner.MustPositive", "panicfact.maypanic"); !ok {
		t.Fatal("round-tripped store lost panicfact.maypanic on MustPositive")
	} else if mp := f.(*analysis.MayPanicFact); len(mp.Sources) == 0 || mp.Sources[0].What != "explicit panic" {
		t.Fatalf("unexpected fact content after round trip: %+v", f)
	}
}

// TestDeterministicOutput runs the same analysis twice and requires
// identical, (file, line, col, analyzer)-sorted diagnostics.
func TestDeterministicOutput(t *testing.T) {
	root := writeFixture(t, allocGuardFixture)
	a := analyze(t, root)
	b := analyze(t, root)
	render := func(ds []analysis.Diagnostic) string {
		var sb strings.Builder
		for _, d := range ds {
			sb.WriteString(d.String())
			sb.WriteString("\n")
		}
		return sb.String()
	}
	if render(a) != render(b) {
		t.Fatalf("two runs disagree:\n%s\nvs\n%s", render(a), render(b))
	}
	for i := 1; i < len(a); i++ {
		p, q := a[i-1], a[i]
		if p.File > q.File || (p.File == q.File && (p.Line > q.Line ||
			(p.Line == q.Line && (p.Col > q.Col ||
				(p.Col == q.Col && p.Analyzer > q.Analyzer))))) {
			t.Fatalf("diagnostics not sorted at %d: %v before %v", i, p, q)
		}
	}
}
