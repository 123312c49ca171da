// Package idpool implements Pilgrim's symbolic-id allocation (§3.3):
// each MPI object type gets locally unique small ids from a pool of
// free ids; releasing an object returns its id for reuse, so programs
// that recycle objects use only a handful of ids, and processes that
// create objects in the same order get identical id sequences.
//
// For MPI_Request objects a single per-type pool would make ids depend
// on the (non-deterministic) completion order, so the tracer keeps a
// separate pool per call signature (§3.4.3); RequestPools provides
// that keyed collection.
package idpool

import "container/heap"

// Pool hands out small non-negative int32 ids, always choosing the
// smallest free id so that allocation order is deterministic.
type Pool struct {
	free intHeap
	next int32
	used map[int32]bool
}

// New returns an empty pool whose first id is 0.
func New() *Pool {
	return &Pool{used: make(map[int32]bool)}
}

// Get returns the smallest unused id.
func (p *Pool) Get() int32 {
	var id int32
	if p.free.Len() > 0 {
		id = heap.Pop(&p.free).(int32)
	} else {
		id = p.next
		p.next++
	}
	p.used[id] = true
	return id
}

// Put returns id to the pool. Releasing an id that is not currently
// allocated is a no-op (matching MPI's tolerance of double frees of
// null handles).
func (p *Pool) Put(id int32) {
	if !p.used[id] {
		return
	}
	delete(p.used, id)
	heap.Push(&p.free, id)
}

// InUse returns the number of ids currently allocated.
func (p *Pool) InUse() int { return len(p.used) }

// HighWater returns the smallest n such that every id ever handed out
// is < n — the total id space the process needed.
func (p *Pool) HighWater() int32 { return p.next }

type intHeap []int32

func (h intHeap) Len() int            { return len(h) }
func (h intHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x interface{}) { *h = append(*h, x.(int32)) }
func (h *intHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// RequestPools keeps one Pool per call signature (§3.4.3). The key is
// the encoded signature of the creating call, excluding the request
// argument itself.
type RequestPools struct {
	pools map[string]*Pool
}

// NewRequestPools returns an empty keyed pool set.
func NewRequestPools() *RequestPools {
	return &RequestPools{pools: make(map[string]*Pool)}
}

// Pool returns the pool for signature key, creating it on first use.
// The lookup does not allocate; the key bytes are copied only when a
// pool is created, so callers may pass a scratch buffer.
func (rp *RequestPools) Pool(key []byte) *Pool {
	p := rp.pools[string(key)]
	if p == nil {
		p = New()
		rp.pools[string(key)] = p
	}
	return p
}

// NumPools returns how many distinct signatures have pools.
func (rp *RequestPools) NumPools() int { return len(rp.pools) }
