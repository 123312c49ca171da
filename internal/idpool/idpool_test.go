package idpool

import (
	"testing"
	"testing/quick"
)

func TestSequentialIDs(t *testing.T) {
	p := New()
	for i := int32(0); i < 10; i++ {
		if got := p.Get(); got != i {
			t.Fatalf("Get #%d = %d", i, got)
		}
	}
}

func TestReuseSmallest(t *testing.T) {
	p := New()
	ids := make([]int32, 5)
	for i := range ids {
		ids[i] = p.Get()
	}
	p.Put(3)
	p.Put(1)
	if got := p.Get(); got != 1 {
		t.Fatalf("expected smallest freed id 1, got %d", got)
	}
	if got := p.Get(); got != 3 {
		t.Fatalf("expected 3 next, got %d", got)
	}
	if got := p.Get(); got != 5 {
		t.Fatalf("expected fresh id 5, got %d", got)
	}
}

func TestPutUnallocatedNoop(t *testing.T) {
	p := New()
	p.Put(7) // never allocated
	if got := p.Get(); got != 0 {
		t.Fatalf("Get after bogus Put = %d, want 0", got)
	}
	p.Put(0)
	p.Put(0) // double free
	if got := p.Get(); got != 0 {
		t.Fatalf("double free corrupted pool: got %d", got)
	}
	if got := p.Get(); got != 1 {
		t.Fatalf("double free duplicated id: got %d", got)
	}
}

func TestHighWaterBoundedByLiveObjects(t *testing.T) {
	// The paper's observation: apps that free before reallocating use
	// only a few ids. Simulate 1000 alloc/free cycles with <= 3 live.
	p := New()
	for i := 0; i < 1000; i++ {
		a, b, c := p.Get(), p.Get(), p.Get()
		p.Put(a)
		p.Put(b)
		p.Put(c)
	}
	if hw := p.HighWater(); hw != 3 {
		t.Fatalf("high water %d, want 3", hw)
	}
	if p.InUse() != 0 {
		t.Fatalf("InUse = %d", p.InUse())
	}
}

func TestQuickNoDuplicateLiveIDs(t *testing.T) {
	f := func(ops []bool) bool {
		p := New()
		live := map[int32]bool{}
		var stack []int32
		for _, get := range ops {
			if get || len(stack) == 0 {
				id := p.Get()
				if live[id] {
					return false // duplicate live id
				}
				live[id] = true
				stack = append(stack, id)
			} else {
				id := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				p.Put(id)
				delete(live, id)
			}
		}
		return p.InUse() == len(live)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRequestPoolsIsolation(t *testing.T) {
	rp := NewRequestPools()
	// Two signatures allocate independently: both start at 0, which is
	// exactly what makes request ids stable across completion orders.
	a0 := rp.Pool([]byte("irecv:src=+1")).Get()
	b0 := rp.Pool([]byte("irecv:src=+2")).Get()
	if a0 != 0 || b0 != 0 {
		t.Fatalf("per-signature pools must be independent: %d %d", a0, b0)
	}
	a1 := rp.Pool([]byte("irecv:src=+1")).Get()
	if a1 != 1 {
		t.Fatalf("second id in pool a = %d", a1)
	}
	rp.Pool([]byte("irecv:src=+1")).Put(a0)
	if got := rp.Pool([]byte("irecv:src=+1")).Get(); got != 0 {
		t.Fatalf("freed id not reused: %d", got)
	}
	if rp.NumPools() != 2 {
		t.Fatalf("NumPools = %d", rp.NumPools())
	}
}

func TestRequestPoolsStableAcrossCompletionOrder(t *testing.T) {
	// The §3.4.3 scenario: three Irecvs with distinct signatures are
	// freed in varying orders across iterations; the ids assigned at
	// the start of each iteration must not change.
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {0, 2, 1}}
	rp := NewRequestPools()
	keys := []string{"sigA", "sigB", "sigC"}
	for iter, order := range orders {
		ids := make([]int32, 3)
		for i, k := range keys {
			ids[i] = rp.Pool([]byte(k)).Get()
		}
		for i, k := range keys {
			if ids[i] != 0 {
				t.Fatalf("iter %d: key %s got id %d, want 0", iter, k, ids[i])
			}
		}
		for _, i := range order { // free in a different order each time
			rp.Pool([]byte(keys[i])).Put(ids[i])
		}
	}
}
