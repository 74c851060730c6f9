package solve

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// Pool is the shared worker pool behind every parallel solver stage:
// the private-global window sweep and the GA's fitness evaluation
// dispatch onto one of these instead of spawning ad-hoc goroutines per
// call.  Workers are persistent goroutines started lazily on the first
// parallel dispatch, so a solver that creates a Pool but stays on its
// single-worker fast path never pays for goroutine startup.
//
// Panics inside a task are isolated: every task runs under recover, a
// panicking task can neither kill its worker goroutine nor deadlock
// the dispatching barrier, and Do reports the first panic of the batch
// as a *PanicError.  The remaining tasks of the batch still run (the
// parallel path cannot un-send them; the inline path matches that
// semantics), so side effects on shared solver state stay consistent
// across worker counts.
//
// A Pool is safe for use by a single dispatching goroutine at a time
// (Do is a barrier; solvers call it from their main loop).  Close
// releases the workers; using a closed pool panics.
type Pool struct {
	workers int

	once   sync.Once
	jobs   chan poolJob
	closed bool
}

// dispatch is one Do call's barrier state: the completion group plus
// the first panic any of its tasks raised.
type dispatch struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// run executes one task under recover, always releasing the barrier.
func (d *dispatch) run(task int, fn func(task int)) {
	defer d.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Value: r, Stack: debug.Stack()}
			d.mu.Lock()
			if d.err == nil {
				d.err = pe
			}
			d.mu.Unlock()
		}
	}()
	fn(task)
}

type poolJob struct {
	task int
	fn   func(task int)
	d    *dispatch
}

// NewPool sizes a pool; workers <= 0 selects GOMAXPROCS, matching the
// Options.Workers convention.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.workers }

// start spawns the persistent workers on first use.
func (p *Pool) start() {
	jobs := make(chan poolJob)
	p.jobs = jobs
	for w := 0; w < p.workers; w++ {
		go func() {
			for j := range jobs {
				j.d.run(j.task, j.fn)
			}
		}()
	}
}

// Do runs fn(0) … fn(n-1) across the pool's workers and returns when
// all calls have finished (a barrier).  Tasks are indivisible: callers
// partition their work into at most Workers() chunks for full
// utilization.  With one worker or one task the call runs inline on
// the caller's goroutine, so single-threaded configurations stay free
// of synchronization.  If any task panicked, Do returns the first
// panic as a *PanicError after the whole batch has finished.
func (p *Pool) Do(n int, fn func(task int)) error {
	if n <= 0 {
		return nil
	}
	if p.closed {
		panic("solve: Do on a closed Pool")
	}
	var d dispatch
	d.wg.Add(n)
	if p.workers == 1 || n == 1 {
		for t := 0; t < n; t++ {
			d.run(t, fn)
		}
		return d.err
	}
	p.once.Do(p.start)
	for t := 0; t < n; t++ {
		p.jobs <- poolJob{task: t, fn: fn, d: &d}
	}
	d.wg.Wait()
	return d.err
}

// Close releases the pool's worker goroutines.  Safe to call on a pool
// whose workers never started, and required before dropping a pool
// that did.
func (p *Pool) Close() {
	p.closed = true
	p.once.Do(func() {}) // mark started so a late Do cannot respawn
	if p.jobs != nil {
		close(p.jobs)
		p.jobs = nil
	}
}
