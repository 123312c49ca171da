package idpool

import (
	"math/rand"
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

// TestPutOutOfRangeNoop: ids the pool never handed out — negative, or
// past the words it has — leave it untouched.
func TestPutOutOfRangeNoop(t *testing.T) {
	p := New()
	p.Put(-1)
	p.Put(1 << 20)
	for i := int32(0); i < 70; i++ {
		p.Get()
	}
	p.Put(-1)
	p.Put(128) // one past the second word
	p.Put(1 << 20)
	if p.InUse() != 70 || p.HighWater() != 70 {
		t.Fatalf("InUse %d HighWater %d after bogus Puts, want 70 70", p.InUse(), p.HighWater())
	}
	if got := p.Get(); got != 70 {
		t.Fatalf("Get = %d, want 70", got)
	}
}

// TestQuickBitmapMatchesHeapReference drives the bitmap and the heap
// pool it replaced with one random Get/Put script and requires the same
// id at every Get and the same InUse/HighWater after every step. A
// script grows past the 64- and 128-id word boundaries, then frees in
// the middle of full words, which is what moves the low-word hint back;
// it also Puts ids that are free, negative or out of range.
func TestQuickBitmapMatchesHeapReference(t *testing.T) {
	script := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, ref := New(), newRefPool()
		var live []int32
		step := func(get bool) bool {
			if get {
				id, want := p.Get(), ref.Get()
				if id != want {
					t.Logf("seed %d: Get = %d, reference %d", seed, id, want)
					return false
				}
				live = append(live, id)
			} else {
				var id int32
				switch k := rng.Intn(10); {
				case k == 0:
					id = int32(rng.Intn(400)) - 100 // maybe free, negative or never handed out
				case len(live) == 0:
					return true
				default:
					i := rng.Intn(len(live))
					id = live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				p.Put(id)
				ref.Put(id)
				for i, l := range live { // the wild Put may have hit a live id
					if l == id {
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
						break
					}
				}
			}
			if p.InUse() != ref.InUse() || p.HighWater() != ref.HighWater() {
				t.Logf("seed %d: InUse %d HighWater %d, reference %d %d", seed,
					p.InUse(), p.HighWater(), ref.InUse(), ref.HighWater())
				return false
			}
			return true
		}
		// Phases: fill, thin out, churn, drain, refill.
		for _, ph := range []struct {
			steps   int
			getBias int // Gets per 10 steps
		}{{130 + rng.Intn(80), 10}, {100, 2}, {300, 5}, {250, 1}, {150, 8}} {
			for i := 0; i < ph.steps; i++ {
				if !step(rng.Intn(10) < ph.getBias) {
					return false
				}
			}
		}
		return p.HighWater() > 128
	}
	if err := quick.Check(script, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWarmPoolAllocFree: once a pool's words exist, Get and Put do not
// allocate, and neither does finding an existing signature's pool from
// scratch key bytes.
func TestWarmPoolAllocFree(t *testing.T) {
	p := New()
	for i := 0; i < 130; i++ {
		p.Get()
	}
	if allocs := testing.AllocsPerRun(100, func() {
		p.Put(3)
		p.Put(70)
		p.Put(129)
		p.Get()
		p.Get()
		p.Get()
	}); allocs != 0 {
		t.Fatalf("warm Get/Put allocates %v times, want 0", allocs)
	}
	rp := NewRequestPools()
	key := []byte("irecv:src=+1")
	rp.Pool(key)
	if allocs := testing.AllocsPerRun(100, func() { rp.Pool(key) }); allocs != 0 {
		t.Fatalf("Pool on an existing key allocates %v times, want 0", allocs)
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
