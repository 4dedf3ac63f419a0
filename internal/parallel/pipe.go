package parallel

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrPipeAborted reports that a Pipe was aborted: the item was not (or
// will not be) processed.
var ErrPipeAborted = errors.New("parallel: pipeline aborted")

// Pipe is a bounded, order-preserving parallel pipeline: Submit
// accepts items one at a time, a fixed pool of workers applies fn to
// them concurrently, and Next yields results strictly in submission
// order. At most `window` items are in flight, so memory stays bounded
// and a slow consumer backpressures the producer.
//
// A window of 1 runs inline: Submit applies fn on the calling
// goroutine and the pipe never starts a goroutine, so a caller can
// drive any depth, 1 included, through the same Submit/Next loop.
// Worker goroutines otherwise start on the first Submit, so a pipe
// that never receives an item costs no goroutine either.
//
// Contract: exactly one goroutine calls Submit and Close (the
// producer), and exactly one goroutine calls Next (the consumer); they
// may be the same or different goroutines. Abort and Wait may be
// called from anywhere. The shutdown sequence that never leaks is:
// producer calls Close after its last Submit; consumer drains Next
// until ok == false; anyone calls Wait. Abort unblocks a producer
// stuck in Submit and makes workers skip remaining items, but the
// drain-then-Wait sequence is still required.
//
// Steady-state Submit/Next round trips are allocation-free: job cells
// (including their completion channels) are recycled through a free
// list once the consumer has observed them.
type Pipe[I, O any] struct {
	// jobs feeds the workers (nil inline); pending holds the same jobs
	// in submission order for the consumer. Both have capacity
	// `window`, and every job enters pending first, so neither send
	// can block once the pending send has gone through.
	jobs    chan *pipeJob[I, O]
	pending chan *pipeJob[I, O]
	quit    chan struct{}

	// free recycles consumed pipeJob cells. A job is only returned
	// after Next (or the abort-drain loop) has read its result, at
	// which point no worker or producer references it. Its capacity
	// covers every cell that can exist at once: window in pending, one
	// held by the consumer and one being submitted.
	free chan *pipeJob[I, O]

	// newStage builds one worker's stage. The first Submit starts the
	// pipe: inline it builds the one stage on the producer's
	// goroutine, otherwise each of the nworkers goroutines builds its
	// own. started and closed are producer-only.
	newStage func() stage[I, O]
	inline   stage[I, O]
	nworkers int
	started  bool
	closed   bool

	aborted atomic.Bool
	workers sync.WaitGroup
}

// pipeJob carries one item through the pipe. done is a one-slot
// buffered channel used as a reusable completion signal: exactly one
// send (by the completing side) and one receive (by the consumer) per
// trip through the pipe, so the cell can be recycled afterwards.
type pipeJob[I, O any] struct {
	in   I
	out  O
	err  error
	done chan struct{}
}

// stage is fn as one worker (or, inline, the producer) applies it.
type stage[I, O any] func(I) (O, error)

// NewPipe creates a pipeline with the given worker count (<= 0 means
// GOMAXPROCS) and in-flight window (raised to the worker count when
// smaller, so no worker is permanently idle).
func NewPipe[I, O any](workers, window int, fn func(I) (O, error)) *Pipe[I, O] {
	return newPipe(workers, window, func() stage[I, O] { return fn })
}

// NewPipeWith is NewPipe with per-worker state: each worker goroutine
// calls newState exactly once on startup and passes its private state
// value to every fn invocation it runs. Because a state value is only
// ever touched by the goroutine that created it, fn can use it as a
// scratch arena (reusable buffers, cached lookups) without locks and
// without per-job allocation. newState runs on the worker goroutine
// itself, so lazily-initialized state lands in that worker's cache.
// Inline (window 1), the producer is the only worker: newState runs
// once, on the first Submit.
func NewPipeWith[I, O, S any](workers, window int, newState func() S, fn func(I, S) (O, error)) *Pipe[I, O] {
	return newPipe(workers, window, func() stage[I, O] {
		state := newState()
		return func(in I) (O, error) { return fn(in, state) }
	})
}

func newPipe[I, O any](workers, window int, newStage func() stage[I, O]) *Pipe[I, O] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if window < workers {
		window = workers
	}
	p := &Pipe[I, O]{
		pending:  make(chan *pipeJob[I, O], window),
		quit:     make(chan struct{}),
		free:     make(chan *pipeJob[I, O], window+2),
		newStage: newStage,
		nworkers: workers,
	}
	if window > 1 {
		p.jobs = make(chan *pipeJob[I, O], window)
	}
	return p
}

// start builds the inline stage or spawns the workers.
func (p *Pipe[I, O]) start() {
	if p.jobs == nil {
		p.inline = p.newStage()
		return
	}
	p.workers.Add(p.nworkers)
	for i := 0; i < p.nworkers; i++ {
		go func() {
			defer p.workers.Done()
			st := p.newStage()
			for j := range p.jobs {
				p.run(j, st)
			}
		}()
	}
}

// run completes job j through st, or with ErrPipeAborted once the pipe
// is aborted, and signals the consumer.
func (p *Pipe[I, O]) run(j *pipeJob[I, O], st stage[I, O]) {
	if p.aborted.Load() {
		j.err = ErrPipeAborted
	} else {
		j.out, j.err = st(j.in)
	}
	j.done <- struct{}{}
}

// getJob returns a recycled (or new) job cell with in set.
func (p *Pipe[I, O]) getJob(in I) *pipeJob[I, O] {
	select {
	case j := <-p.free:
		j.in = in
		return j
	default:
		return &pipeJob[I, O]{in: in, done: make(chan struct{}, 1)}
	}
}

// putJob recycles a fully-consumed job cell, dropping its payload
// references so recycled cells do not retain caller memory.
func (p *Pipe[I, O]) putJob(j *pipeJob[I, O]) {
	var zi I
	var zo O
	j.in, j.out, j.err = zi, zo, nil
	select {
	case p.free <- j:
	default:
	}
}

// Submit enqueues one item, blocking while the in-flight window is
// full; inline, it then applies fn before returning. It returns
// ErrPipeAborted (without enqueueing) once the pipe has been aborted.
func (p *Pipe[I, O]) Submit(in I) error {
	if p.aborted.Load() {
		return ErrPipeAborted
	}
	if !p.started {
		p.started = true
		p.start()
	}
	j := p.getJob(in)
	select {
	case p.pending <- j:
	case <-p.quit:
		p.putJob(j)
		return ErrPipeAborted
	}
	if p.jobs == nil {
		p.run(j, p.inline)
		return nil
	}
	select {
	case p.jobs <- j:
	case <-p.quit:
		// The job is already visible to the consumer, so it must be
		// completed here: no worker is obliged to pick it up anymore.
		j.err = ErrPipeAborted
		j.done <- struct{}{}
	}
	return nil
}

// Close declares the end of input. The consumer can keep calling Next
// until it has drained every submitted item. Close is idempotent; it
// must not race with Submit (producer-only, like Submit itself).
func (p *Pipe[I, O]) Close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.pending)
	if p.jobs != nil {
		close(p.jobs)
	}
}

// Next returns the next result in submission order, blocking until it
// is ready. ok == false means the pipe was closed and fully drained.
// A per-item error (including ErrPipeAborted for items cancelled by
// Abort) is returned alongside the item's output.
func (p *Pipe[I, O]) Next() (out O, ok bool, err error) {
	j, ok := <-p.pending
	if !ok {
		var zero O
		return zero, false, nil
	}
	<-j.done
	out, err = j.out, j.err
	p.putJob(j)
	return out, true, err
}

// Abort cancels the pipeline: a blocked or future Submit fails with
// ErrPipeAborted and workers skip items they have not started. Items
// already being processed run to completion (fn is never interrupted
// mid-call). Abort is idempotent and safe from any goroutine.
func (p *Pipe[I, O]) Abort() {
	if p.aborted.CompareAndSwap(false, true) {
		close(p.quit)
	}
}

// Wait joins the worker goroutines (none inline, or before the first
// Submit). It returns once Close has been called and every worker has
// exited; call it after the drain.
func (p *Pipe[I, O]) Wait() {
	p.workers.Wait()
}
