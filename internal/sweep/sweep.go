// Package sweep runs independent simulation tasks in parallel with a
// bounded worker pool, preserving input order in the results. The
// experiment harness uses it to spread a figure's scenario grid across
// cores; every simulation is self-contained (own engine, own RNG), so the
// only shared state is the read-only job trace.
//
// All parallel work in the process executes on one shared pool
// (SharedPool): Run called from inside a pool worker borrows the caller's
// pool instead of spawning a fresh worker set, so nesting sweeps (figure →
// panel → scenario grid) never oversubscribes the machine. For
// dependency-shaped work, Submit/Future expose the pool directly:
// submit-now/await-later with helping waits (see Pool).
package sweep

import (
	"errors"
	"fmt"
)

// Task computes the i-th result.
type Task[T any] func() (T, error)

// Result pairs a task's output with its error.
type Result[T any] struct {
	Value T
	Err   error
}

// Run executes all tasks on the shared pool and returns the results in
// task order. It never short-circuits: every task runs even if an earlier
// one fails, so partial grids remain inspectable. Every task is submitted up
// front; the shared pool bounds global concurrency, and waiting runs a task
// that has not started inline, so however deeply Run calls nest no
// goroutines are spawned beyond the pool's bound.
func Run[T any](tasks []Task[T]) []Result[T] {
	p := SharedPool()
	futs := make([]*Future[T], len(tasks))
	for i, t := range tasks {
		futs[i] = Submit(p, t)
	}
	return Collect(futs)
}

// call runs one task, converting a panic into ErrPanic so a single bad
// scenario cannot take down a whole sweep.
func call[T any](t Task[T]) (res Result[T]) {
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	res.Value, res.Err = t()
	return res
}

// FirstError returns the first non-nil error in task order, or nil.
func FirstError[T any](results []Result[T]) error {
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}

// Values extracts the values, returning the first error encountered.
func Values[T any](results []Result[T]) ([]T, error) {
	if err := FirstError(results); err != nil {
		return nil, err
	}
	out := make([]T, len(results))
	for i := range results {
		out[i] = results[i].Value
	}
	return out, nil
}

// ErrPanic wraps a recovered panic from a task.
var ErrPanic = errors.New("sweep: task panicked")
