package idpool

import "container/heap"

// The heap-and-map pool this package shipped before Pool became a
// bitmap, kept verbatim (types renamed) as the oracle of
// TestQuickBitmapMatchesHeapReference: "smallest free id first" must
// hand out the same id at every step.

type refPool struct {
	free refIntHeap
	next int32
	used map[int32]bool
}

func newRefPool() *refPool {
	return &refPool{used: make(map[int32]bool)}
}

func (p *refPool) Get() int32 {
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

func (p *refPool) Put(id int32) {
	if !p.used[id] {
		return
	}
	delete(p.used, id)
	heap.Push(&p.free, id)
}

func (p *refPool) InUse() int       { return len(p.used) }
func (p *refPool) HighWater() int32 { return p.next }

type refIntHeap []int32

func (h refIntHeap) Len() int            { return len(h) }
func (h refIntHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h refIntHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refIntHeap) Push(x interface{}) { *h = append(*h, x.(int32)) }
func (h *refIntHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
