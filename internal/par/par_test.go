package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]int32, n)
			For(n, workers, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForSequentialIsInOrder(t *testing.T) {
	var order []int
	For(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if i != v {
			t.Fatalf("sequential For out of order: %v", order)
		}
	}
}

func TestQueueOrder(t *testing.T) {
	q := NewQueue(4)
	defer q.Close()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		if !q.Do(func() { got = append(got, i) }) {
			t.Fatalf("Do %d refused on open queue", i)
		}
	}
	q.Barrier()
	for i, v := range got {
		if i != v {
			t.Fatalf("tasks ran out of submission order: %v", got[:i+1])
		}
	}
}

func TestQueueBarrierWaits(t *testing.T) {
	q := NewQueue(1)
	defer q.Close()
	var done atomic.Bool
	q.Do(func() {
		time.Sleep(20 * time.Millisecond)
		done.Store(true)
	})
	q.Barrier()
	if !done.Load() {
		t.Fatal("Barrier returned before queued work finished")
	}
}

func TestQueueCloseDrainsAndIsIdempotent(t *testing.T) {
	q := NewQueue(8)
	var n atomic.Int64
	for i := 0; i < 50; i++ {
		q.Do(func() { n.Add(1) })
	}
	q.Close()
	if n.Load() != 50 {
		t.Fatalf("Close drained %d of 50 tasks", n.Load())
	}
	q.Close() // second Close must not panic or hang
	if q.Do(func() { n.Add(1) }) {
		t.Fatal("Do accepted work after Close")
	}
	q.Barrier() // Barrier on a closed queue must return, not hang
	if n.Load() != 50 {
		t.Fatal("task ran after Close")
	}
}

func TestQueueConcurrentClose(t *testing.T) {
	q := NewQueue(4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Close()
		}()
	}
	wg.Wait()
}
