package sequitur

import (
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// loopBody is a 13-terminal stencil-shaped iteration: post receives and
// sends, wait, reduce.
var loopBody = []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 8, 10, 11}

// nestedLoopBody is a 60-terminal iteration of bt's rank 5, renumbered:
// R -> A^4 B^2 C D^2 18 C 18, with A, B, C and D flat bodies of 5, 10,
// 4 and 5 terminals (B holds 9 twice).
var nestedLoopBody = slices.Concat(
	iterN([]int32{0, 1, 2, 3, 4}, 4),
	iterN([]int32{5, 6, 7, 8, 9, 10, 11, 12, 13, 9}, 2),
	[]int32{14, 15, 16, 17},
	iterN([]int32{18, 19, 20, 21, 22}, 2),
	[]int32{18, 14, 15, 16, 17, 18},
)

func iterN(body []int32, n int) []int32 {
	var seq []int32
	for i := 0; i < n; i++ {
		seq = append(seq, body...)
	}
	return seq
}

// TestAppendZeroAllocs pins the steady-state append at zero
// allocations. A clean iteration is the loop cursor counting; a
// perturbed one flushes it and takes the slow path, where once the
// slabs and the digram table have grown to the loop's working set every
// transient symbol and rule of the per-append churn comes off a free
// list, and the flushed terminals fit flush's stack buffer.
func TestAppendZeroAllocs(t *testing.T) {
	g := New()
	iteration := func() {
		for _, v := range loopBody {
			g.Append(v)
		}
	}
	perturbed := func() {
		iteration()
		for i, v := range loopBody {
			if i == len(loopBody)-2 {
				v = 99
			}
			g.Append(v)
		}
	}
	for i := 0; i < 50; i++ {
		perturbed()
	}
	if avg := testing.AllocsPerRun(200, iteration); avg != 0 {
		t.Fatalf("steady-state loop iteration allocates %.2f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, perturbed); avg != 0 {
		t.Fatalf("steady-state perturbed iteration allocates %.2f times, want 0", avg)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Three nested iterations (references and exponents), then one
	// broken at its last terminal: where the cursor follows the clean
	// ones into the broken one, the flush replays the 72 terminals
	// before the stray from the cursor's stack, which keeps its
	// capacity. The strays follow the Thue-Morse sequence, which never
	// repeats a block three times; even so the slow path folds most
	// calls into rules of whole calls before the cursor can arm.
	g = New()
	body := slices.Concat(nestedLoopBody, loopBody)
	calls, flushes := 0, 0
	perturbedNested := func() {
		for i := 0; i < 3*len(body); i++ {
			g.Append(body[i%len(body)])
		}
		for _, v := range body[:len(body)-1] {
			g.Append(v)
		}
		if g.cur != nilIdx && g.holding() > 64 {
			flushes++
		}
		g.Append(98 + int32(bits.OnesCount(uint(calls))&1))
		calls++
	}
	for i := 0; i < 64; i++ {
		perturbedNested()
	}
	flushes = 0
	if avg := testing.AllocsPerRun(200, perturbedNested); avg != 0 {
		t.Fatalf("steady-state perturbed nested iteration allocates %.2f times, want 0", avg)
	}
	if flushes < 16 {
		t.Fatalf("%d of 201 perturbed nested iterations flushed more than 64 terminals, want at least 16", flushes)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSlabEntrySizes pins the two hot structs, and the live-bytes
// figures of the ledger: a symbol is 32 bytes, two to a cache line; an
// index entry is a fingerprint and a symbol index, 8 bytes, eight to a
// cache line, so a probe run at half load rarely leaves its line. The
// builder itself is two lines; the loop cursor sits in what was
// padding.
func TestSlabEntrySizes(t *testing.T) {
	if n := unsafe.Sizeof(symbol{}); n != 32 {
		t.Errorf("symbol is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(digramEntry{}); n != 8 {
		t.Errorf("digramEntry is %d bytes, want 8", n)
	}
	if n := unsafe.Sizeof(Grammar{}); n != 128 {
		t.Errorf("Grammar is %d bytes, want 128", n)
	}
}

// TestCheckInvariantsCatchesSlabCorruption covers the failures only
// the slab layout can have: a freed slot still linked into a body, a
// use list that disagrees with the rule's count, a symbol and an index
// entry that disagree about who owns the entry, an entry whose
// fingerprint is not its owner's digram, a digram the index lost, and a
// loop cursor that is not where an armed cursor can be.
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
	// armedAfter returns the grammar of body's first n appends
	// repeated, whose cursor must be armed there.
	armedAfter := func(body []int32, n int) func() *Grammar {
		return func() *Grammar {
			g := New()
			for i := 0; i < n; i++ {
				g.Append(body[i%len(body)])
			}
			if err := g.checkCursor(); err != nil || g.cur == nilIdx {
				t.Fatalf("test grammar's cursor: armed=%v, %v", g.cur != nilIdx, err)
			}
			return g
		}
	}
	// Flat: the cursor stands on the sixth symbol of loopBody's rule,
	// the iteration's first terminal not linked (the cursor re-armed
	// when the last iteration completed).
	buildArmed := armedAfter(loopBody, 4*len(loopBody)+5)
	// Linked: the cursor armed on the append of the third iteration's
	// first terminal and took one more.
	buildLinked := armedAfter(loopBody, 2*len(loopBody)+2)
	// Nested: R -> A 3 A 4, A -> 1 2, the cursor on the second A's 2.
	nestedBody := []int32{1, 2, 3, 1, 2, 4}
	buildNested := armedAfter(nestedBody, 5*len(nestedBody)+4)
	// tail returns the rule the cursor follows and its run.
	tail := func(g *Grammar) (r, run int32) {
		run = g.syms[0].prev
		if g.syms[run].key >= 0 {
			run = g.syms[run].prev
		}
		return -g.syms[run].key, run
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

	type corruption struct {
		name    string
		corrupt func(g *Grammar)
		want    string // part of the report
	}
	check := func(base func() *Grammar, cases []corruption) {
		for _, c := range cases {
			g := base()
			c.corrupt(g)
			if err := g.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: reported as %v, want an error mentioning %q", c.name, err, c.want)
			}
		}
	}
	check(build, []corruption{
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
				if e.sym == 0 {
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
		}, "fingerprint"},
		{"entry's fingerprint is not its owner's digram", func(g *Grammar) {
			a, _, _ := owners(g)
			g.index[g.syms[a].slot].fp ^= 1 << 31
		}, "fingerprint is not the digram it starts"},
		{"entry owned by a symbol followed by its guard", func(g *Grammar) {
			a, _, _ := owners(g)
			last := g.syms[0].prev
			g.index[g.syms[a].slot].sym, g.syms[last].slot = last, g.syms[a].slot
			g.syms[a].slot = noSlot
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
		{"digram missing from the index", func(g *Grammar) {
			a, _, _ := owners(g)
			g.deleteAt(int(g.syms[a].slot))
		}, "digram not indexed"},
		{"cursor past the slab", func(g *Grammar) {
			g.cur = int32(len(g.syms))
		}, "out of range"},
		{"cursor armed with no run at the tail", func(g *Grammar) {
			g.Append(50)
			g.Append(51)
			g.cur = g.first(g.rulesInOrder()[1])
		}, "does not end in a rule's run"},
		{"frames left on a disarmed cursor", func(g *Grammar) {
			g.stack = []int32{0}
		}, "disarmed"},
	})
	check(buildArmed, []corruption{
		{"cursor armed on a dead rule", func(g *Grammar) {
			r, _ := tail(g)
			g.rules[r].dead = true
		}, "dead rule"},
		{"cursor on the rule's guard", func(g *Grammar) {
			r, _ := tail(g)
			g.cur = g.rules[r].guard
		}, "not a terminal of the body"},
		{"frame without its count", func(g *Grammar) {
			g.stack = append(g.stack, g.cur)
		}, "not frames"},
		{"terminal counted past its exponent", func(g *Grammar) {
			g.rep = 1
		}, "repetitions of a terminal"},
		// verify refuses runs longer than maxRepeat inside the body.
		{"cursor on an iteration verify does not prove", func(g *Grammar) {
			r, _ := tail(g)
			g.syms[g.first(r)].exp = maxRepeat + 1
		}, "would not end in R^(j+1)"},
	})
	check(buildLinked, []corruption{
		{"cursor's rule begins with another terminal", func(g *Grammar) {
			g.syms[g.syms[0].prev].key = 99
		}, "does not begin with the tail terminal"},
		{"cursor on the linked first terminal", func(g *Grammar) {
			r, _ := tail(g)
			g.cur = g.first(r)
		}, "linked already"},
	})
	check(buildNested, []corruption{
		{"frame names a terminal", func(g *Grammar) {
			g.stack[0] = g.cur
		}, "not a rule reference"},
		{"frame counted past its reference's exponent", func(g *Grammar) {
			g.stack[1] = 1
		}, "counts 1 repetitions"},
		{"cursor outside the frame's body", func(g *Grammar) {
			r, _ := tail(g)
			g.cur = g.syms[g.first(r)].next // R's 3, a terminal of R's body, not A's
		}, "not a terminal of the body"},
	})
}

// BenchmarkAppendLoop is the loop cursor's case: a steady loop.
func BenchmarkAppendLoop(b *testing.B) {
	g := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Append(loopBody[i%len(loopBody)])
	}
}

// BenchmarkAppendNestedLoop is a steady loop whose body nests rule
// references with exponents (nestedLoopBody).
func BenchmarkAppendNestedLoop(b *testing.B) {
	g := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Append(nestedLoopBody[i%len(nestedLoopBody)])
	}
}

// noisyStream is the shape of a lossy timing grammar's input: five
// symbols at random.
func noisyStream() []int32 {
	rng := rand.New(rand.NewSource(1))
	stream := make([]int32, 1<<16)
	for i := range stream {
		stream[i] = int32(rng.Intn(5))
	}
	return stream
}

// TestNoisyFootprint pins the bytes the digram index holds once
// noisyStream is appended, so a change that grows the index fails here
// and not only on the ledger's trace_live_bytes_per_rank.
func TestNoisyFootprint(t *testing.T) {
	g := New()
	for _, v := range noisyStream() {
		g.Append(v)
	}
	syms, rules, index := g.SlabBytes()
	t.Logf("%d digrams: symbols %d B, rules %d B, index %d B", g.nIdx, syms, rules, index)
	// 65 536 entries of 8 B: the index doubles at half load, and holds
	// more than 16 384 digrams.
	if want := 1 << 19; index != want {
		t.Errorf("digram index holds %d B of %d digrams, want %d", index, g.nIdx, want)
	}
}

// BenchmarkAppendNoisy appends noisyStream: the cursor hardly ever arms
// and must cost nothing.
func BenchmarkAppendNoisy(b *testing.B) {
	stream := noisyStream()
	g := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Append(stream[i%len(stream)])
	}
}

// BenchmarkAppendPerturbedLoop replaces one symbol in 40 of the steady
// loop, so two iterations in three arm the cursor only to flush it.
func BenchmarkAppendPerturbedLoop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	stream := make([]int32, 1<<16)
	for i := range stream {
		stream[i] = loopBody[i%len(loopBody)]
		if rng.Intn(40) == 0 {
			stream[i] = int32(rng.Intn(16))
		}
	}
	g := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Append(stream[i%len(stream)])
	}
}
