package cst

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// checkMerged fails unless got matches want exactly: same table bytes,
// same relabel maps. This is the byte-equivalence property every
// alternative feed order/scheduling must preserve.
func checkMerged(t *testing.T, n int, got, want Merged) {
	t.Helper()
	if !bytes.Equal(got.Table.SerializeExact(), want.Table.SerializeExact()) {
		t.Fatalf("n=%d: merged table differs from MergePairwise", n)
	}
	for r := 0; r < n; r++ {
		if len(got.Relabels[r]) != len(want.Relabels[r]) {
			t.Fatalf("n=%d rank %d: relabel size %d != %d", n, r, len(got.Relabels[r]), len(want.Relabels[r]))
		}
		for old, nw := range want.Relabels[r] {
			if got.Relabels[r][old] != nw {
				t.Fatalf("n=%d rank %d: relabel[%d]=%d, want %d", n, r, old, got.Relabels[r][old], nw)
			}
		}
	}
}

// TestAddConcurrentMatchesPairwise hammers the lock-free path: all
// ranks fed at once from their own goroutines, in a different shuffled
// claim order per trial, must produce exactly MergePairwise's result,
// with the root completed exactly once. Run under -race this also pins
// the join-counter ordering argument.
func TestAddConcurrentMatchesPairwise(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13, 16, 17, 33, 64} {
		want := MergePairwise(mkTables(n))
		for trial := 0; trial < 4; trial++ {
			tables := mkTables(n)
			order := rand.New(rand.NewSource(int64(n*1000 + trial))).Perm(n)
			inc := NewIncremental(n)
			var rootDone atomic.Int32
			var wg sync.WaitGroup
			for _, r := range order {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					done, err := inc.AddConcurrent(r, tables[r], true)
					if err != nil {
						t.Errorf("n=%d rank %d: %v", n, r, err)
					}
					if done {
						rootDone.Add(1)
					}
				}(r)
			}
			wg.Wait()
			if rootDone.Load() != 1 {
				t.Fatalf("n=%d: root completed %d times, want exactly 1", n, rootDone.Load())
			}
			if !inc.Done() {
				t.Fatalf("n=%d: not Done after all concurrent adds", n)
			}
			checkMerged(t, n, inc.Result(), want)
		}
	}
}

// TestAddConcurrentUnowned checks owned=false leaves the caller's
// tables intact (the merge clones before extending).
func TestAddConcurrentUnowned(t *testing.T) {
	const n = 5
	tables := mkTables(n)
	before := make([][]byte, n)
	for r, tb := range tables {
		before[r] = tb.SerializeExact()
	}
	want := MergePairwise(mkTables(n))
	inc := NewIncremental(n)
	for r := 0; r < n; r++ {
		if _, err := inc.AddConcurrent(r, tables[r], false); err != nil {
			t.Fatal(err)
		}
	}
	checkMerged(t, n, inc.Result(), want)
	for r, tb := range tables {
		if !bytes.Equal(tb.SerializeExact(), before[r]) {
			t.Fatalf("rank %d: unowned table mutated by the merge", r)
		}
	}
}

// TestAddConcurrentRejectsDuplicates races several goroutines claiming
// the same rank: the CAS admits exactly one.
func TestAddConcurrentRejectsDuplicates(t *testing.T) {
	inc := NewIncremental(2)
	const attempts = 8
	var ok, dup atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tb := New()
			tb.Add([]byte("x"), 1)
			if _, err := inc.AddConcurrent(0, tb, true); err != nil {
				dup.Add(1)
			} else {
				ok.Add(1)
			}
		}()
	}
	wg.Wait()
	if ok.Load() != 1 || dup.Load() != attempts-1 {
		t.Fatalf("duplicate claims: %d accepted, %d rejected; want 1/%d", ok.Load(), dup.Load(), attempts-1)
	}
	if _, err := inc.AddConcurrent(2, New(), true); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := inc.AddConcurrent(-1, New(), true); err == nil {
		t.Fatal("negative rank accepted")
	}
}
