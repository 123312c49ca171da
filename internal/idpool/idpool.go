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

import "math/bits"

// Pool hands out small non-negative int32 ids, always choosing the
// smallest free id so that allocation order is deterministic. It is a
// bitmap: bit b of used[w] is set while id 64w+b is allocated, so the
// smallest free id is the first clear bit. The zero value is an empty
// pool; a Pool must not be copied after first use.
type Pool struct {
	used []uint64
	low  int   // every word before used[low] is full
	next int32 // one past the largest id ever handed out
}

// New returns an empty pool whose first id is 0.
func New() *Pool { return new(Pool) }

// Get returns the smallest unused id.
func (p *Pool) Get() int32 {
	w := p.low
	for w < len(p.used) && p.used[w] == ^uint64(0) {
		w++
	}
	if w == len(p.used) {
		p.used = append(p.used, 0)
	}
	p.low = w
	b := bits.TrailingZeros64(^p.used[w])
	p.used[w] |= 1 << b
	id := int32(w<<6 | b)
	if id >= p.next {
		p.next = id + 1
	}
	return id
}

// Put returns id to the pool. Releasing an id that is not currently
// allocated is a no-op (matching MPI's tolerance of double frees of
// null handles).
func (p *Pool) Put(id int32) {
	w := int(id >> 6)
	if id < 0 || w >= len(p.used) {
		return
	}
	p.used[w] &^= 1 << (id & 63)
	if w < p.low {
		p.low = w
	}
}

// InUse returns the number of ids currently allocated.
func (p *Pool) InUse() int {
	n := 0
	for _, w := range p.used {
		n += bits.OnesCount64(w)
	}
	return n
}

// RequestPools keeps one Pool per call signature (§3.4.3). The key is
// the encoded signature of the creating call, excluding the request
// argument itself. The zero value is an empty set.
type RequestPools struct {
	pools map[string]*Pool // made by the first Pool call
}

// Pool returns the pool for signature key, creating it on first use.
// The lookup does not allocate; the key bytes are copied only when a
// pool is created, so callers may pass a scratch buffer.
func (rp *RequestPools) Pool(key []byte) *Pool {
	p := rp.pools[string(key)]
	if p == nil {
		if rp.pools == nil {
			rp.pools = make(map[string]*Pool)
		}
		p = New()
		rp.pools[string(key)] = p
	}
	return p
}

// NumPools returns how many distinct signatures have pools.
func (rp *RequestPools) NumPools() int { return len(rp.pools) }
