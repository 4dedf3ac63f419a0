package analysis_test

import "testing"

// lockOrderFixture seeds one true positive per lockorder finding kind:
// a lock-order cycle across two functions (reported at the first
// edge by the Finish phase), a recursive acquisition, a blocking
// operation while a mutex is held (locally, through a callee's
// fact, through a lock helper that returns holding, and past a
// deferred unlock), plus clean shapes that must stay silent.
var lockOrderFixture = map[string]string{"lo/lo.go": `package lo

import "sync"

var muA, muB sync.Mutex

func abOrder() {
	muA.Lock()
	muB.Lock() // want lockorder
	muB.Unlock()
	muA.Unlock()
}

func baOrder() {
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
}

func recursive() {
	muA.Lock()
	muA.Lock() // want lockorder
	muA.Unlock()
	muA.Unlock()
}

func recvHeld(ch chan int) int {
	muA.Lock()
	v := <-ch // want lockorder
	muA.Unlock()
	return v
}

func waitOn(ch chan int) int {
	return <-ch // want lockorder
}

func callHeld(ch chan int) int {
	muB.Lock()
	v := waitOn(ch)
	muB.Unlock()
	return v
}

func lockA() {
	muA.Lock()
}

func helperHeld(ch chan int) {
	lockA()
	<-ch // want lockorder
	muA.Unlock()
}

func deferHeld(ch chan int) int {
	muB.Lock()
	defer muB.Unlock()
	return <-ch // want lockorder
}

func clean(ch chan int) int {
	muA.Lock()
	defer muA.Unlock()
	return len(ch)
}

func unlockBeforeWait(ch chan int) int {
	muA.Lock()
	muA.Unlock()
	return <-ch
}

func spawn(wg *sync.WaitGroup, stop bool) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		muA.Lock()
		if stop {
			return
		}
		muA.Unlock()
	}()
}

func caller(wg *sync.WaitGroup, ch chan int) int {
	spawn(wg, false)
	return <-ch
}
`}

// lockOrderChainedSrc blocks under a held mutex through the receiver
// of a call: recvA(ch).get() and (<-ch).get(), next to the unchained
// recvB control. A callee's blocking op is reported at its own site,
// so recvA's and recvB's receives carry the markers. The facts golden
// leaves this file out: its callers' summaries hold exactly the blocks
// that walking a call's receiver adds, and the golden pins the facts
// that do not depend on it.
const lockOrderChainedSrc = `package lo

type box struct{ v int }

func (b box) get() int { return b.v }

func recvA(ch chan box) box {
	return <-ch // want lockorder
}

func recvB(ch chan box) box {
	return <-ch // want lockorder
}

func chainedCall(ch chan box) int {
	muA.Lock()
	v := recvA(ch).get()
	muA.Unlock()
	return v
}

func chainedRecv(ch chan box) int {
	muA.Lock()
	v := (<-ch).get() // want lockorder
	muA.Unlock()
	return v
}

func unchained(ch chan box) int {
	muA.Lock()
	b := recvB(ch)
	muA.Unlock()
	return b.get()
}
`

// TestLockOrder checks the findings lockOrderFixture and
// lockOrderChainedSrc mark.
func TestLockOrder(t *testing.T) {
	files := map[string]string{"lo/chained.go": lockOrderChainedSrc}
	for name, src := range lockOrderFixture {
		files[name] = src
	}
	root := writeFixture(t, files)
	checkMarkers(t, root, files, analyze(t, root))
}

// chanSafetyFixture seeds each chansafety finding kind: send and close
// after a reachable close, a consumer-side close, a send hidden
// behind a method call on a value whose Close was already called
// (the Pipe "Submit after Close" shape, via closes/sends facts), an
// unbounded loop spawn, and a select no producer can ever fire —
// next to the bounded/guarded variants that must stay silent.
var chanSafetyFixture = map[string]string{"cs/cs.go": `package cs

type queue struct {
	jobs chan int
}

func (q *queue) Close() {
	close(q.jobs)
}

func (q *queue) Submit(v int) {
	q.jobs <- v
}

func sendAfterClose() {
	ch := make(chan int, 1)
	close(ch)
	ch <- 1 // want chansafety
}

func doubleClose() {
	ch := make(chan int)
	close(ch)
	close(ch) // want chansafety
}

func consumerClose(ch chan int) {
	<-ch
	close(ch) // want chansafety
}

func submitAfterClose(q *queue) {
	q.Close()
	q.Submit(1) // want chansafety
}

func closeGuarded(ch chan int, stop bool) {
	if stop {
		close(ch)
		return
	}
	ch <- 1
}

func fanout(items []int, done chan int) {
	for range items {
		go func() { // want chansafety
			done <- 1
		}()
	}
}

func boundedFanout(items []int, tokens chan struct{}, done chan int) {
	for range items {
		tokens <- struct{}{}
		go func() {
			done <- 1
			<-tokens
		}()
	}
}

func deadSelect() int {
	ch := make(chan int)
	select { // want chansafety
	case v := <-ch:
		return v
	}
}

func liveSelect() int {
	ch := make(chan int)
	go func() { ch <- 1 }()
	select {
	case v := <-ch:
		return v
	}
}

func bufferedSendSelect() {
	ch := make(chan int, 1)
	select {
	case ch <- 1:
	}
}

func consumerPlain(ch chan int) {
	<-ch
	close(ch) // want chansafety
}

func consumerDefer(ch chan int) {
	defer close(ch) // want chansafety
	<-ch
}
`}

// TestChanSafety checks the findings chanSafetyFixture marks.
func TestChanSafety(t *testing.T) {
	root := writeFixture(t, chanSafetyFixture)
	checkMarkers(t, root, chanSafetyFixture, analyze(t, root))
}

// ctxFlowFixture seeds each ctxflow finding kind: an exported API that
// blocks with no cancellation affordance (directly and through an
// unexported helper's fact), a goroutine spinning in an
// uncancellable loop, a context stored in a struct field, and a
// context-taking function whose cancellation never reaches the
// goroutine it spawns. Affordance-carrying and signal-watching
// variants must stay silent.
var ctxFlowFixture = map[string]string{"cf/cf.go": `package cf

import "context"

var events = make(chan int)

func Drain() int {
	return <-events // want ctxflow
}

func recvOne() int {
	return <-events // want ctxflow
}

func Pump() int {
	return recvOne()
}

func WithStop(stop chan struct{}) int {
	<-stop
	return <-events
}

func spinWorker(n *int) {
	go func() { // want goroleak
		for { // want ctxflow
			*n++
		}
	}()
}

type session struct {
	ctx context.Context // want ctxflow
	id  int
}

func serve(ctx context.Context, n *int) {
	go func() { // want ctxflow goroleak
		*n++
	}()
}

func serveOK(ctx context.Context, n *int) {
	go func() {
		<-ctx.Done()
		*n++
	}()
}
`}

// TestCtxFlow checks the findings ctxFlowFixture marks.
func TestCtxFlow(t *testing.T) {
	root := writeFixture(t, ctxFlowFixture)
	checkMarkers(t, root, ctxFlowFixture, analyze(t, root))
}

// TestConcurrencyWaiverSpans proves the multi-line waiver contract
// for each new analyzer: a directive on (or above) the first line of
// a multi-line statement silences findings reported on the
// statement's continuation lines, while the identical unwaived shape
// still fires.
func TestConcurrencyWaiverSpans(t *testing.T) {
	files := map[string]string{"ws/ws.go": `package ws

import "sync"

var mu sync.Mutex

var feed = make(chan int)

func waivedLock(ch chan int) []int {
	mu.Lock()
	//arcvet:ignore lockorder fixture: the channel is fed before the lock is taken
	out := []int{
		<-ch,
	}
	mu.Unlock()
	return out
}

func unwaivedLock(ch chan int) []int {
	mu.Lock()
	out := []int{
		<-ch, // want lockorder
	}
	mu.Unlock()
	return out
}

type box struct {
	c chan int
}

func (b *box) Close() {
	close(b.c)
}

func (b *box) Put(v int) {
	b.c <- v
}

func waivedReuse(b *box) {
	b.Close()
	//arcvet:ignore chansafety fixture: probe sends tolerated by the shutdown test
	for _, v := range []int{1, 2} {
		b.Put(v)
	}
}

func unwaivedReuse(b *box) {
	b.Close()
	for _, v := range []int{1, 2} {
		b.Put(v) // want chansafety
	}
}

func WaivedDrain() []int {
	//arcvet:ignore ctxflow fixture: the test harness feeds the channel
	out := []int{
		<-feed,
	}
	return out
}

func UnwaivedDrain() []int {
	out := []int{
		<-feed, // want ctxflow
	}
	return out
}
`}
	root := writeFixture(t, files)
	checkMarkers(t, root, files, analyze(t, root))
}
