// Package par is the finalize pipeline's tiny fork/join helper: a
// bounded worker pool over an index range. Every user of this package
// writes results into per-index slots, so the output of a parallel
// loop is identical to the sequential loop regardless of scheduling —
// the property the byte-identity guarantee of the parallel finalize
// rests on.
package par

import (
	"sync"
	"sync/atomic"
)

// Queue is a serial task executor: one worker goroutine runs submitted
// tasks in submission order. It is the asynchronous half of the
// collector's journal discipline — an ingest handler enqueues the disk
// append (preserving frame order, since submissions under one lock are
// ordered) and returns without ever doing I/O under that lock.
type Queue struct {
	mu     sync.Mutex
	closed bool
	tasks  chan func()
	done   chan struct{}
}

// NewQueue starts a queue whose channel buffers up to depth pending
// tasks (minimum 1); submitters block only when the worker is that far
// behind.
func NewQueue(depth int) *Queue {
	if depth < 1 {
		depth = 1
	}
	q := &Queue{tasks: make(chan func(), depth), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		for f := range q.tasks {
			f()
		}
	}()
	return q
}

// Do submits a task; tasks run in submission order. Returns false
// (dropping the task) once the queue is closed.
func (q *Queue) Do(f func()) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.tasks <- f
	return true
}

// Barrier blocks until every task submitted before it has run (or the
// queue is closed).
func (q *Queue) Barrier() {
	fence := make(chan struct{})
	if !q.Do(func() { close(fence) }) {
		return
	}
	select {
	case <-fence:
	case <-q.done:
	}
}

// Close drains pending tasks, stops the worker, and waits for it.
// Safe to call more than once.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		<-q.done
		return
	}
	q.closed = true
	close(q.tasks)
	q.mu.Unlock()
	<-q.done
}

// For runs f(i) for every i in [0, n), on up to workers goroutines.
// workers <= 1 runs inline with zero overhead. Iterations are handed
// out by an atomic counter, so the assignment of iterations to
// goroutines is nondeterministic — callers must make f(i) write only
// to state owned by index i.
func For(n, workers int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
