package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded set of worker goroutines that executes submitted tasks.
// One process-wide pool (SharedPool) is shared by every sweep and every
// experiment stage, however deeply nested, so total worker concurrency
// stays at the pool size instead of multiplying per nesting level.
//
// Deadlock freedom under nesting comes from helping: a goroutine that
// waits on a Future whose task has not started yet runs the task inline on
// its own stack instead of blocking. A worker that blocks mid-task waiting
// on a future therefore always waits on work that some goroutine is
// actively executing. The one requirement on callers is that futures form
// a DAG: a task may wait on futures submitted before or during its run,
// but two tasks must never wait on each other.
type Pool struct {
	size int

	mu      sync.Mutex
	queue   []*node //dmp:guardedby(mu) pending submissions; claimed nodes are skipped on pop and dropped from the head on push
	workers int     //dmp:guardedby(mu) live worker goroutines
	peak    int     //dmp:guardedby(mu) high-water mark of workers (never exceeds size)
}

// node is the pool-internal state of one submitted task.
type node struct {
	state atomic.Int32 //dmp:atomiconly nodeQueued → nodeClaimed → nodeDone
	run   func()       // executes the task, stores the result, closes done
	done  chan struct{}
}

const (
	nodeQueued int32 = iota
	nodeClaimed
	nodeDone
)

// NewPool returns a pool with the given worker bound (minimum 1).
func NewPool(size int) *Pool {
	if size < 1 {
		size = 1
	}
	return &Pool{size: size}
}

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// SharedPool returns the process-wide pool, sized to GOMAXPROCS. Every
// Run call and every experiment-harness stage submits here, which is what
// keeps nested sweeps from oversubscribing the machine.
func SharedPool() *Pool {
	sharedOnce.Do(func() { sharedPool = NewPool(runtime.GOMAXPROCS(0)) })
	return sharedPool
}

// Size returns the worker bound.
func (p *Pool) Size() int { return p.size }

// PeakWorkers reports the high-water mark of concurrently live worker
// goroutines. The pool guarantees PeakWorkers() <= Size() for its whole
// lifetime; tests assert it after deeply nested sweeps.
func (p *Pool) PeakWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

func (p *Pool) enqueue(n *node) {
	p.mu.Lock()
	// Drop the claimed nodes at the head: a task a waiter ran inline stays
	// queued until a worker pops it, which can take as long as every worker
	// is busy. A submitter that waits on its oldest task before submitting
	// the next thus keeps the queue at the size of its window.
	for len(p.queue) > 0 && p.queue[0].state.Load() != nodeQueued {
		p.queue[0] = nil
		p.queue = p.queue[1:]
	}
	p.queue = append(p.queue, n)
	if p.workers < p.size {
		p.workers++
		if p.workers > p.peak {
			p.peak = p.workers
		}
		go p.work()
	}
	p.mu.Unlock()
}

// work drains the queue and exits when it is empty. Exit and spawn are
// both decided under mu, so a task enqueued while the last worker is
// exiting always gets a fresh worker.
func (p *Pool) work() {
	for {
		p.mu.Lock()
		var n *node
		for len(p.queue) > 0 {
			c := p.queue[0]
			p.queue[0] = nil
			p.queue = p.queue[1:]
			if c.state.CompareAndSwap(nodeQueued, nodeClaimed) {
				n = c
				break
			}
		}
		if n == nil {
			p.workers--
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		n.run()
	}
}

// Future is a handle to a task submitted to a pool. Create with Submit;
// read with Wait or Get (any number of times, from any goroutine).
type Future[T any] struct {
	n   *node
	res Result[T]
}

// Submit enqueues the task for execution and returns immediately. The
// task's panic, if any, surfaces as ErrPanic in the future's result.
func Submit[T any](p *Pool, t Task[T]) *Future[T] {
	f := &Future[T]{n: &node{done: make(chan struct{})}}
	f.n.run = func() {
		f.res = call(t)
		// A task a waiter ran inline stays in the queue until a worker
		// pops it or it reaches the head at a later push. Dropping the
		// closure keeps that node from pinning the task's captures and
		// its result meanwhile.
		f.n.run = nil
		f.n.state.Store(nodeDone)
		close(f.n.done)
	}
	p.enqueue(f.n)
	return f
}

// Wait blocks until the task has run and returns its result. If the task
// is still queued, Wait claims it and runs it inline on the calling
// goroutine — the helping rule that makes nested waits deadlock-free and
// keeps a blocked caller from wasting its core.
func (f *Future[T]) Wait() Result[T] {
	if f.n.state.CompareAndSwap(nodeQueued, nodeClaimed) {
		f.n.run()
	}
	<-f.n.done
	return f.res
}

// Get is Wait unpacked into (value, error).
func (f *Future[T]) Get() (T, error) {
	r := f.Wait()
	return r.Value, r.Err
}

// Collect waits for every future and returns the results in input order.
func Collect[T any](fs []*Future[T]) []Result[T] {
	out := make([]Result[T], len(fs))
	for i, f := range fs {
		out[i] = f.Wait()
	}
	return out
}

// CollectValues waits for every future and extracts the values, returning
// the first error in input order. Like Run, it never short-circuits: every
// task still executes even when an earlier one failed.
func CollectValues[T any](fs []*Future[T]) ([]T, error) {
	return Values(Collect(fs))
}
