package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/raceflag"
)

func TestPipePreservesOrder(t *testing.T) {
	base := runtime.NumGoroutine()
	// Workers that finish out of order (later items are faster) must
	// still deliver in submission order.
	p := NewPipe(4, 4, func(i int) (int, error) {
		time.Sleep(time.Duration(50-i) * time.Microsecond)
		return i * i, nil
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := p.Submit(i); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
		}
		p.Close()
	}()
	for i := 0; i < 50; i++ {
		out, ok, err := p.Next()
		if !ok || err != nil {
			t.Fatalf("next %d: ok=%v err=%v", i, ok, err)
		}
		if out != i*i {
			t.Fatalf("out of order: got %d at position %d, want %d", out, i, i*i)
		}
	}
	if _, ok, _ := p.Next(); ok {
		t.Fatal("Next after drain must report done")
	}
	<-done
	p.Wait()
	if !goroutinesSettleTo(base) {
		t.Fatalf("goroutines leaked: %d live, started with %d", runtime.NumGoroutine(), base)
	}
}

func TestPipeCarriesPerItemErrors(t *testing.T) {
	sentinel := errors.New("sentinel")
	p := NewPipe(2, 2, func(i int) (int, error) {
		if i == 3 {
			return 0, sentinel
		}
		return i, nil
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 6; i++ {
			if err := p.Submit(i); err != nil {
				t.Errorf("submit: %v", err)
			}
		}
		p.Close()
	}()
	for i := 0; i < 6; i++ {
		out, ok, err := p.Next()
		if !ok {
			t.Fatal("pipe ended early")
		}
		if i == 3 {
			if !errors.Is(err, sentinel) {
				t.Fatalf("item 3: err = %v, want sentinel", err)
			}
			continue
		}
		if err != nil || out != i {
			t.Fatalf("item %d: out=%d err=%v", i, out, err)
		}
	}
	<-done
	p.Wait()
}

func TestPipeAbortUnblocksSubmit(t *testing.T) {
	base := runtime.NumGoroutine()
	block := make(chan struct{})
	p := NewPipe(1, 1, func(i int) (int, error) {
		<-block
		return i, nil
	})
	submitted := make(chan error, 1)
	go func() {
		var err error
		// The window is 1, so one of these must block until Abort.
		for i := 0; i < 8 && err == nil; i++ {
			err = p.Submit(i)
		}
		submitted <- err
		p.Close()
	}()
	time.Sleep(20 * time.Millisecond) // let the producer hit the full window
	p.Abort()
	close(block)
	if err := <-submitted; !errors.Is(err, ErrPipeAborted) {
		t.Fatalf("blocked Submit after Abort = %v, want ErrPipeAborted", err)
	}
	// Drain: every submitted job must still complete (possibly with
	// ErrPipeAborted), and the pipe must then be clean.
	for {
		_, ok, _ := p.Next()
		if !ok {
			break
		}
	}
	p.Wait()
	if !goroutinesSettleTo(base) {
		t.Fatalf("goroutines leaked: %d live, started with %d", runtime.NumGoroutine(), base)
	}
}

func TestPipeAbortCancelsUnstartedWork(t *testing.T) {
	var ran atomic.Int64
	p := NewPipe(1, 8, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			// Give the producer time to fill the window behind us.
			time.Sleep(50 * time.Millisecond)
		}
		return i, nil
	})
	for i := 0; i < 8; i++ {
		if err := p.Submit(i); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	p.Abort()
	p.Close()
	aborted := 0
	for {
		_, ok, err := p.Next()
		if !ok {
			break
		}
		if errors.Is(err, ErrPipeAborted) {
			aborted++
		}
	}
	p.Wait()
	if aborted == 0 {
		t.Fatal("abort cancelled no queued work")
	}
	if got := ran.Load(); got+int64(aborted) != 8 {
		t.Fatalf("ran %d + aborted %d != 8 submitted", got, aborted)
	}
}

func TestPipeSingleWorkerDefaultsAndZeroItems(t *testing.T) {
	p := NewPipe(0, 0, func(s string) (string, error) { return s, nil })
	p.Close()
	if _, ok, _ := p.Next(); ok {
		t.Fatal("empty closed pipe must be done")
	}
	p.Wait()
}

// workerScratch is deliberately non-atomic: if two Pipe workers ever
// shared one state value, the race detector would flag the unsynchronized
// hits increments and the hits totals would be corrupted.
type workerScratch struct {
	id   int64
	hits int
	buf  []byte
}

func TestPipeWithPerWorkerState(t *testing.T) {
	const workers, items = 4, 400
	var created atomic.Int64
	var mu chan struct{} // buffered-1 channel used as a mutex for the registry
	mu = make(chan struct{}, 1)
	registry := make(map[*workerScratch]bool)

	p := NewPipeWith(workers, workers,
		func() *workerScratch {
			s := &workerScratch{id: created.Add(1), buf: make([]byte, 64)}
			mu <- struct{}{}
			registry[s] = true
			<-mu
			return s
		},
		func(i int, s *workerScratch) (int64, error) {
			s.hits++ // unsynchronized on purpose: state must be worker-private
			for k := range s.buf {
				s.buf[k] = byte(i)
			}
			return s.id, nil
		})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < items; i++ {
			if err := p.Submit(i); err != nil {
				t.Errorf("submit: %v", err)
				return
			}
		}
		p.Close()
	}()
	seen := make(map[int64]bool)
	for {
		id, ok, err := p.Next()
		if !ok {
			break
		}
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		seen[id] = true
	}
	<-done
	p.Wait()

	if got := created.Load(); got != workers {
		t.Fatalf("newState called %d times, want exactly %d (once per worker)", got, workers)
	}
	if len(registry) != workers {
		t.Fatalf("%d distinct state values, want %d", len(registry), workers)
	}
	total := 0
	for s := range registry {
		total += s.hits
	}
	if total != items {
		t.Fatalf("per-worker hit counts sum to %d, want %d (lost or doubled updates imply shared state)", total, items)
	}
	if len(seen) == 0 || len(seen) > workers {
		t.Fatalf("results reported %d worker ids, want between 1 and %d", len(seen), workers)
	}
}

// TestPipeSteadyStateAllocFree pins the pooled-job design: after
// warm-up, a Submit/Next round trip through the pipe performs no
// allocations on the producer/consumer goroutine. (Worker-side costs
// are fn's business; here fn does nothing.)
func TestPipeSteadyStateAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	p := NewPipe(1, 1, func(i int) (int, error) { return i, nil })
	defer func() {
		p.Close()
		for {
			if _, ok, _ := p.Next(); !ok {
				break
			}
		}
		p.Wait()
	}()
	for i := 0; i < 64; i++ { // warm the job pool
		if err := p.Submit(i); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := p.Next(); !ok || err != nil {
			t.Fatalf("warmup next: ok=%v err=%v", ok, err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := p.Submit(7); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := p.Next(); !ok || err != nil {
			t.Fatalf("next: ok=%v err=%v", ok, err)
		}
	})
	if avg > 0.1 {
		t.Fatalf("steady-state Submit/Next allocates %.2f allocs/op, want ~0", avg)
	}
}

func TestPipeStressLeakFree(t *testing.T) {
	base := runtime.NumGoroutine()
	for iter := 0; iter < 20; iter++ {
		p := NewPipe(4, 8, func(i int) (string, error) {
			return fmt.Sprint(i), nil
		})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 100; i++ {
				if p.Submit(i) != nil {
					break
				}
			}
			p.Close()
		}()
		n := 0
		for {
			_, ok, _ := p.Next()
			if !ok {
				break
			}
			n++
			if n == 30 && iter%2 == 1 {
				p.Abort() // abandon mid-stream every other iteration
			}
		}
		<-done
		p.Wait()
	}
	if !goroutinesSettleTo(base) {
		t.Fatalf("goroutines leaked: %d live, started with %d", runtime.NumGoroutine(), base)
	}
}

// The tests below pin inline mode (a window of 1): fn runs on the
// submitting goroutine, no goroutine is started, and the Submit/Next
// contract is otherwise the same as with workers.

func TestPipeInlineOrderNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	var peak int
	p := NewPipe(1, 1, func(i int) (int, error) {
		peak = max(peak, runtime.NumGoroutine()) // unsynchronized: fn must run on this goroutine
		return i * i, nil
	})
	for i := 0; i < 50; i++ {
		if err := p.Submit(i); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		out, ok, err := p.Next()
		if !ok || err != nil || out != i*i {
			t.Fatalf("next %d: out=%d ok=%v err=%v", i, out, ok, err)
		}
	}
	p.Close()
	if _, ok, _ := p.Next(); ok {
		t.Fatal("Next after Close and drain must report done")
	}
	p.Wait()
	if peak > base {
		t.Fatalf("inline pipe ran fn with %d goroutines live, started with %d", peak, base)
	}
}

func TestPipeInlineAcrossGoroutines(t *testing.T) {
	// Producer and consumer may still be different goroutines: Submit
	// blocks while the one-item window is full.
	p := NewPipe(1, 1, func(i int) (int, error) { return -i, nil })
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if err := p.Submit(i); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
		}
		p.Close()
	}()
	for i := 0; ; i++ {
		out, ok, err := p.Next()
		if !ok {
			if i != 100 {
				t.Fatalf("drained %d items, want 100", i)
			}
			break
		}
		if err != nil || out != -i {
			t.Fatalf("item %d: out=%d err=%v", i, out, err)
		}
	}
	<-done
	p.Wait()
}

func TestPipeInlinePerItemError(t *testing.T) {
	sentinel := errors.New("sentinel")
	p := NewPipe(1, 1, func(i int) (int, error) {
		if i == 3 {
			return 0, sentinel
		}
		return i, nil
	})
	for i := 0; i < 6; i++ {
		if err := p.Submit(i); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		out, ok, err := p.Next()
		if !ok {
			t.Fatal("pipe ended early")
		}
		if i == 3 {
			if !errors.Is(err, sentinel) {
				t.Fatalf("item 3: err = %v, want sentinel", err)
			}
			continue
		}
		if err != nil || out != i {
			t.Fatalf("item %d: out=%d err=%v", i, out, err)
		}
	}
	p.Close()
	p.Wait()
}

func TestPipeInlineAbort(t *testing.T) {
	var ran atomic.Int64
	p := NewPipe(1, 1, func(i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if err := p.Submit(1); err != nil {
		t.Fatal(err)
	}
	p.Abort()
	p.Abort() // idempotent
	if err := p.Submit(2); !errors.Is(err, ErrPipeAborted) {
		t.Fatalf("Submit after Abort = %v, want ErrPipeAborted", err)
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1: an aborted Submit must not run it", got)
	}
	p.Close()
	// The item submitted before Abort was already processed inline.
	if out, ok, err := p.Next(); !ok || err != nil || out != 1 {
		t.Fatalf("pre-abort item: out=%d ok=%v err=%v", out, ok, err)
	}
	if _, ok, _ := p.Next(); ok {
		t.Fatal("aborted pipe delivered an item it refused")
	}
	p.Wait()
}

func TestPipeInlineDrainAfterClose(t *testing.T) {
	p := NewPipe(1, 1, func(s string) (string, error) { return s + "!", nil })
	if err := p.Submit("a"); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if out, ok, err := p.Next(); !ok || err != nil || out != "a!" {
		t.Fatalf("drain: out=%q ok=%v err=%v", out, ok, err)
	}
	for i := 0; i < 2; i++ {
		if _, ok, _ := p.Next(); ok {
			t.Fatal("Next on a closed, drained pipe must report done")
		}
	}
	p.Wait()
}

func TestPipeInlineSteadyStateAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	states := 0
	p := NewPipeWith(1, 1,
		func() *workerScratch { states++; return &workerScratch{} },
		func(i int, s *workerScratch) (int, error) { s.hits++; return i, nil })
	round := func() {
		if err := p.Submit(7); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := p.Next(); !ok || err != nil {
			t.Fatalf("next: ok=%v err=%v", ok, err)
		}
	}
	round() // builds the state and the first job cell
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("steady-state inline Submit/Next allocates %.2f allocs/op, want 0", avg)
	}
	p.Close()
	p.Wait()
	if states != 1 {
		t.Fatalf("newState ran %d times, want once", states)
	}
}

func TestPipeWorkersSteadyStateAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	p := NewPipe(2, 2, func(i int) (int, error) { return i, nil })
	round := func() {
		if err := p.Submit(7); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := p.Next(); !ok || err != nil {
			t.Fatalf("next: ok=%v err=%v", ok, err)
		}
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg > 0.1 {
		t.Fatalf("steady-state Submit/Next allocates %.2f allocs/op, want ~0", avg)
	}
	p.Close()
	p.Wait()
}
