package sweep

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestFutureSubmitAwaitOrder(t *testing.T) {
	p := NewPool(4)
	var fs []*Future[int]
	for i := 0; i < 50; i++ {
		i := i
		fs = append(fs, Submit(p, func() (int, error) { return i * 3, nil }))
	}
	vals, err := CollectValues(fs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != i*3 {
			t.Fatalf("vals[%d] = %d, want %d", i, v, i*3)
		}
	}
	if got := p.PeakWorkers(); got > p.Size() {
		t.Fatalf("peak workers %d exceeded pool size %d", got, p.Size())
	}
}

func TestFuturePanicBecomesError(t *testing.T) {
	p := NewPool(2)
	f := Submit(p, func() (int, error) { panic("kaboom") })
	ok := Submit(p, func() (int, error) { return 4, nil })
	if r := f.Wait(); !errors.Is(r.Err, ErrPanic) {
		t.Fatalf("panic err = %v, want ErrPanic", r.Err)
	}
	if v, err := ok.Get(); err != nil || v != 4 {
		t.Fatalf("sibling future broken: %d, %v", v, err)
	}
}

func TestFutureWaitIsIdempotent(t *testing.T) {
	p := NewPool(1)
	var runs atomic.Int32
	f := Submit(p, func() (int, error) { runs.Add(1); return 9, nil })
	for i := 0; i < 3; i++ {
		if v, err := f.Get(); err != nil || v != 9 {
			t.Fatalf("wait %d: %d, %v", i, v, err)
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("task ran %d times, want 1", runs.Load())
	}
}

// A size-1 pool whose only worker is busy must still finish futures whose
// creator waits on them: the waiting goroutine runs queued tasks inline.
func TestWaitHelpsWhenPoolSaturated(t *testing.T) {
	p := NewPool(1)
	release := make(chan struct{})
	slow := Submit(p, func() (int, error) { <-release; return 1, nil })
	quick := Submit(p, func() (int, error) { return 2, nil })
	done := make(chan int)
	go func() {
		v, _ := quick.Get()
		done <- v
	}()
	select {
	case v := <-done:
		if v != 2 {
			t.Fatalf("helped task returned %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not help: deadlocked behind the saturated worker")
	}
	close(release)
	if v, _ := slow.Get(); v != 1 {
		t.Fatal("slow task lost")
	}
}

// A task a waiter ran inline stays queued until a worker pops it, which
// takes as long as every worker is busy. Meanwhile its node must not pin the
// task's captures or its result: a submitter that runs one task per trace
// inline on a saturated pool would otherwise keep every trace alive.
func TestInlineRunNodeReleasesTask(t *testing.T) {
	p := NewPool(1)
	release := make(chan struct{})
	slow := Submit(p, func() (int, error) { <-release; return 1, nil })
	big := make([]byte, 1<<20)
	f := Submit(p, func() ([]byte, error) { return big, nil })
	if v, _ := f.Get(); len(v) != len(big) {
		t.Fatalf("result has %d bytes, want %d", len(v), len(big))
	}
	p.mu.Lock()
	queued := len(p.queue) > 0 && p.queue[len(p.queue)-1] == f.n
	p.mu.Unlock()
	if !queued {
		t.Fatal("the node run inline left the queue while the worker was busy")
	}
	if f.n.run != nil {
		t.Fatal("a node run inline still holds its task closure")
	}
	close(release)
	if v, _ := slow.Get(); v != 1 {
		t.Fatal("slow task lost")
	}
}

// A submitter that keeps a window of tasks in flight and waits on its
// oldest before submitting the next (the Grizzly generator's pattern) runs
// every task inline while the workers are busy. The queue must still stay at
// the size of the window, not grow by one claimed node per task.
func TestInlineWindowKeepsQueueBounded(t *testing.T) {
	p := NewPool(1)
	release := make(chan struct{})
	blocked := make(chan struct{})
	slow := Submit(p, func() (int, error) { close(blocked); <-release; return 1, nil })
	<-blocked // the only worker is busy from here on
	const window, tasks = 8, 10_000
	ring := make([]*Future[int], window)
	peak := 0
	for i := 0; i < tasks; i++ {
		slot := &ring[i%window]
		if *slot != nil {
			if v, _ := (*slot).Get(); v != i-window {
				t.Fatalf("task %d returned %d", i-window, v)
			}
		}
		*slot = Submit(p, func() (int, error) { return i, nil })
		p.mu.Lock()
		if n := len(p.queue); n > peak {
			peak = n
		}
		p.mu.Unlock()
	}
	for _, f := range ring {
		f.Wait()
	}
	if peak > window+1 {
		t.Fatalf("queue reached %d nodes for a window of %d", peak, window)
	}
	close(release)
	if v, _ := slow.Get(); v != 1 {
		t.Fatal("slow task lost")
	}
}

// Nested submit-and-wait to several levels on a tiny pool: the helping
// rule must keep the DAG progressing with no deadlock and no worker
// goroutines beyond the pool size.
func TestNestedFuturesDeadlockFreeAndBounded(t *testing.T) {
	p := NewPool(2)
	var fanout func(depth int) (int, error)
	fanout = func(depth int) (int, error) {
		if depth == 0 {
			return 1, nil
		}
		var fs []*Future[int]
		for i := 0; i < 3; i++ {
			fs = append(fs, Submit(p, func() (int, error) { return fanout(depth - 1) }))
		}
		sum := 0
		for _, f := range fs {
			v, err := f.Get()
			if err != nil {
				return 0, err
			}
			sum += v
		}
		return sum, nil
	}
	donec := make(chan struct{})
	var got int
	var err error
	go func() {
		got, err = fanout(4) // 3^4 = 81 leaves through 120 nested futures
		close(donec)
	}()
	select {
	case <-donec:
	case <-time.After(30 * time.Second):
		t.Fatal("nested futures deadlocked")
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != 81 {
		t.Fatalf("fanout sum = %d, want 81", got)
	}
	if peak := p.PeakWorkers(); peak > p.Size() {
		t.Fatalf("peak workers %d exceeded pool size %d", peak, p.Size())
	}
}

// Nested Run calls must borrow the shared pool rather than spawning a
// fresh worker set per level: the worker-layer high-water mark stays at
// the pool size regardless of nesting depth (the old per-call pools would
// have reached NumCPU² goroutines here).
func TestNestedRunBorrowsSharedPool(t *testing.T) {
	p := SharedPool()
	inner := func() ([]Result[int], error) {
		tasks := make([]Task[int], 8)
		for i := range tasks {
			i := i
			tasks[i] = func() (int, error) { return i, nil }
		}
		return Run(tasks), nil
	}
	outer := make([]Task[int], 8)
	for i := range outer {
		outer[i] = func() (int, error) {
			rs, _ := inner()
			sum := 0
			for _, r := range rs {
				sum += r.Value
			}
			return sum, nil
		}
	}
	for _, r := range Run(outer) {
		if r.Err != nil || r.Value != 28 {
			t.Fatalf("nested run result %d, %v", r.Value, r.Err)
		}
	}
	if peak, size := p.PeakWorkers(), p.Size(); peak > size {
		t.Fatalf("worker layer grew to %d goroutines, pool size is %d", peak, size)
	}
}

func BenchmarkSubmitWait(b *testing.B) {
	p := SharedPool()
	for i := 0; i < b.N; i++ {
		f := Submit(p, func() (int, error) { return i, nil })
		if _, err := f.Get(); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleSubmit() {
	p := NewPool(2)
	trace := Submit(p, func() (string, error) { return "trace", nil })
	norm := Submit(p, func() (float64, error) { return 2.0, nil })
	panel := Submit(p, func() (string, error) {
		tr, err := trace.Get()
		if err != nil {
			return "", err
		}
		n, err := norm.Get()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s/%g", tr, n), nil
	})
	v, _ := panel.Get()
	fmt.Println(v)
	// Output: trace/2
}
