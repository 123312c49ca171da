package sequitur

import (
	"strings"
	"testing"
	"unsafe"
)

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

// TestSlabEntrySizes pins the two hot structs at 32 bytes: two symbols
// and two index entries to a cache line, and the live-bytes figures of
// the ledger.
func TestSlabEntrySizes(t *testing.T) {
	if n := unsafe.Sizeof(symbol{}); n != 32 {
		t.Errorf("symbol is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(digramEntry{}); n != 32 {
		t.Errorf("digramEntry is %d bytes, want 32", n)
	}
}

// TestCheckInvariantsCatchesSlabCorruption covers the failures only
// the slab layout can have: a freed slot still linked into a body, a
// use list that disagrees with the rule's count, and a symbol and an
// index entry that disagree about who owns the entry.
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
	// owners returns two symbols that own index entries, and a freed
	// slot if the slab has one.
	owners := func(g *Grammar) (a, b, freed int32) {
		a, b, freed = nilIdx, nilIdx, nilIdx
		for s := range g.syms {
			switch {
			case g.syms[s].exp == freedExp:
				freed = int32(s)
			case g.syms[s].slot == noSlot:
			case a == nilIdx:
				a = int32(s)
			case b == nilIdx:
				b = int32(s)
			}
		}
		if a == nilIdx || b == nilIdx || freed == nilIdx {
			t.Fatalf("test grammar has no two owners and a freed slot (%d, %d, %d)", a, b, freed)
		}
		return a, b, freed
	}

	for _, c := range []struct {
		name    string
		corrupt func(g *Grammar)
		want    string // part of the report
	}{
		{"reachable freed slot", func(g *Grammar) {
			g.freeSym(g.syms[0].next)
			g.recycle()
		}, ""},
		{"use count mismatch", func(g *Grammar) {
			g.rules[g.rulesInOrder()[1]].uses++
		}, "use list"},
		{"reference missing from use list", func(g *Grammar) {
			g.dropUse(g.rules[g.rulesInOrder()[1]].useHead)
		}, "use list"},
		{"slot names another symbol's entry (an entry claimed twice)", func(g *Grammar) {
			a, b, _ := owners(g)
			g.syms[a].slot = g.syms[b].slot
		}, "another symbol's"},
		{"slot names an empty entry", func(g *Grammar) {
			a, _, _ := owners(g)
			for i, e := range g.index {
				if e.e1 == 0 {
					g.syms[a].slot = int32(i)
					return
				}
			}
		}, "empty"},
		{"owned entry holds another digram", func(g *Grammar) {
			a, b, _ := owners(g)
			sa, sb := g.syms[a].slot, g.syms[b].slot
			g.index[sa].sym, g.index[sb].sym = b, a
			g.syms[a].slot, g.syms[b].slot = sb, sa
		}, "digram it does not start"},
		{"guard owns an entry", func(g *Grammar) {
			a, _, _ := owners(g)
			g.syms[0].slot = g.syms[a].slot
		}, "guard or freed"},
		{"freed slot owns an entry", func(g *Grammar) {
			a, _, freed := owners(g)
			g.syms[freed].slot = g.syms[a].slot
		}, "guard or freed"},
		{"entry nobody owns", func(g *Grammar) {
			a, _, _ := owners(g)
			g.syms[a].slot = noSlot
		}, ""},
	} {
		g := build()
		c.corrupt(g)
		if err := g.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: reported as %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}

func BenchmarkAppendLoop(b *testing.B) {
	g := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Append(loopBody[i%len(loopBody)])
	}
}
