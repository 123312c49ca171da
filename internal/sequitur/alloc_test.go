package sequitur

import "testing"

// loopBody is a 13-terminal stencil-shaped iteration: post receives and
// sends, wait, reduce.
var loopBody = []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 8, 10, 11}

// TestAppendZeroAllocs pins the steady-state append at zero
// allocations: once the slabs and the digram table have grown to the
// loop's working set, every transient symbol and rule of the per-append
// churn comes off a free list.
func TestAppendZeroAllocs(t *testing.T) {
	g := New()
	iteration := func() {
		for _, v := range loopBody {
			g.Append(v)
		}
	}
	for i := 0; i < 50; i++ {
		iteration()
	}
	if avg := testing.AllocsPerRun(200, iteration); avg != 0 {
		t.Fatalf("steady-state loop iteration allocates %.2f times, want 0", avg)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsCatchesSlabCorruption covers the two failures only
// the slab layout can have: a freed slot still linked into a body, and
// a use list that disagrees with the rule's count.
func TestCheckInvariantsCatchesSlabCorruption(t *testing.T) {
	build := func() *Grammar {
		g := New()
		for i := 0; i < 3; i++ {
			for _, v := range []int32{1, 2, 3, 1, 2, 4} {
				g.Append(v)
			}
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return g
	}

	g := build()
	g.freeSym(g.syms[0].next)
	g.recycle()
	if g.CheckInvariants() == nil {
		t.Fatal("reachable freed slot not reported")
	}

	g = build()
	g.rules[g.rulesInOrder()[1]].uses++
	if g.CheckInvariants() == nil {
		t.Fatal("use count mismatch not reported")
	}

	g = build()
	g.dropUse(g.rules[g.rulesInOrder()[1]].useHead)
	if g.CheckInvariants() == nil {
		t.Fatal("reference missing from use list not reported")
	}
}

func BenchmarkAppendLoop(b *testing.B) {
	g := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Append(loopBody[i%len(loopBody)])
	}
}
