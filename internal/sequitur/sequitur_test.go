package sequitur

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// build appends seq to a fresh grammar.
func build(t *testing.T, seq []int32) *Grammar {
	t.Helper()
	g := New()
	for _, v := range seq {
		g.Append(v)
	}
	return g
}

// roundtrip asserts that the grammar regenerates exactly seq, both
// from the live structure and from the serialized form.
func roundtrip(t *testing.T, seq []int32) *Grammar {
	t.Helper()
	g := build(t, seq)
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("invariants after %d symbols: %v", len(seq), err)
	}
	got := g.Expand(0)
	if !slices.Equal(got, seq) {
		t.Fatalf("expand mismatch:\n got %v\nwant %v", got, seq)
	}
	sg := Serialized(g.Serialize())
	if err := sg.Validate(); err != nil {
		t.Fatalf("serialized validate: %v", err)
	}
	if got := sg.Expand(0); !slices.Equal(got, seq) {
		t.Fatalf("serialized expand mismatch:\n got %v\nwant %v", got, seq)
	}
	if n := sg.InputLen(); n != int64(len(seq)) {
		t.Fatalf("InputLen = %d, want %d", n, len(seq))
	}
	if n := g.InputLen(); n != int64(len(seq)) {
		t.Fatalf("grammar InputLen = %d, want %d", n, len(seq))
	}
	return g
}

func TestEmpty(t *testing.T) {
	g := New()
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := g.Expand(0); len(got) != 0 {
		t.Fatalf("expected empty expansion, got %v", got)
	}
	sg := Serialized(g.Serialize())
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleSymbol(t *testing.T) {
	roundtrip(t, []int32{7})
}

func TestTwoDistinct(t *testing.T) {
	roundtrip(t, []int32{1, 2})
}

func TestRunMerging(t *testing.T) {
	g := roundtrip(t, []int32{5, 5, 5, 5, 5, 5, 5})
	st := g.Stats()
	if st.Rules != 1 || st.Symbols != 1 {
		t.Fatalf("a^7 should be a single run symbol, got %+v", st)
	}
}

func TestAppendRun(t *testing.T) {
	g := New()
	g.AppendRun(3, 4)
	g.AppendRun(3, 6)
	g.Append(9)
	want := []int32{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 9}
	if got := g.Expand(0); !slices.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.Symbols != 2 {
		t.Fatalf("3^10 9 should be two symbols, got %+v", st)
	}
}

func TestAppendRunZeroIgnored(t *testing.T) {
	g := New()
	g.AppendRun(1, 0)
	g.AppendRun(1, -3)
	if g.InputLen() != 0 {
		t.Fatal("non-positive runs must be ignored")
	}
}

func TestNegativeTerminalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative terminal")
		}
	}()
	New().Append(-1)
}

func TestSimpleLoop(t *testing.T) {
	// (a b)^64 must compress to O(1) rules thanks to run-length.
	var seq []int32
	for i := 0; i < 64; i++ {
		seq = append(seq, 1, 2)
	}
	g := roundtrip(t, seq)
	st := g.Stats()
	if st.Rules > 3 || st.Symbols > 6 {
		t.Fatalf("(ab)^64 should be O(1) size, got %+v", st)
	}
}

func TestLoopConstantSpace(t *testing.T) {
	// The paper's claim: a loop of N identical iterations takes O(1)
	// rules (exponents hold the count). Sizes must not grow with N.
	sizes := map[int]int{}
	for _, n := range []int{16, 256, 4096, 65536} {
		g := New()
		for i := 0; i < n; i++ {
			g.Append(1)
			g.Append(2)
			g.Append(3)
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sizes[n] = g.Stats().Symbols
	}
	if sizes[65536] != sizes[16] {
		t.Fatalf("grammar size grew with iteration count: %v", sizes)
	}
}

func TestNestedLoops(t *testing.T) {
	// ((a b)^8 c)^32: outer and inner loops both collapse.
	var seq []int32
	for o := 0; o < 32; o++ {
		for i := 0; i < 8; i++ {
			seq = append(seq, 1, 2)
		}
		seq = append(seq, 3)
	}
	g := roundtrip(t, seq)
	if st := g.Stats(); st.Symbols > 10 {
		t.Fatalf("nested loop grammar too large: %+v", st)
	}
}

func TestRuleReuse(t *testing.T) {
	// abcdbc: bc should become one rule reused.
	roundtrip(t, []int32{1, 2, 3, 4, 2, 3})
}

func TestRuleInlining(t *testing.T) {
	// Classic P2 exercise: abcdbcabcd — intermediate rules get formed
	// and partially inlined.
	roundtrip(t, []int32{1, 2, 3, 4, 2, 3, 1, 2, 3, 4})
}

func TestPaperExample(t *testing.T) {
	// Figure 1, rank 0: terminals 1 2 3 then 4^10.
	seq := []int32{1, 2, 3}
	for i := 0; i < 10; i++ {
		seq = append(seq, 4)
	}
	g := roundtrip(t, seq)
	if st := g.Stats(); st.Rules != 1 || st.Symbols != 4 {
		t.Fatalf("expected a single rule with 4 symbols, got %+v", st)
	}
}

func TestAlternatingPhases(t *testing.T) {
	// Two different loop bodies interleaved in phases, like an app
	// alternating compute/communicate epochs.
	var seq []int32
	for p := 0; p < 10; p++ {
		for i := 0; i < 20; i++ {
			seq = append(seq, 1, 2, 3)
		}
		for i := 0; i < 5; i++ {
			seq = append(seq, 7, 8)
		}
	}
	g := roundtrip(t, seq)
	if st := g.Stats(); st.Symbols > 20 {
		t.Fatalf("phase pattern should compress, got %+v", st)
	}
}

func TestRandomSmallAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		alpha := 1 + rng.Intn(5)
		seq := make([]int32, n)
		for i := range seq {
			seq[i] = int32(rng.Intn(alpha))
		}
		roundtrip(t, seq)
	}
}

func TestRandomRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		g := New()
		var want []int32
		for i := 0; i < 100; i++ {
			v := int32(rng.Intn(4))
			k := 1 + rng.Intn(6)
			g.AppendRun(v, int64(k))
			for j := 0; j < k; j++ {
				want = append(want, v)
			}
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := g.Expand(0); !slices.Equal(got, want) {
			t.Fatalf("trial %d: mismatch", trial)
		}
	}
}

// PackShapedSeed is a FuzzAppendDifferential corpus entry shaped like
// the stream a Packer feeds its grammar: near-identical blocks of one
// terminal per int (here 2..7, the fuzz target keeping three bits of a
// byte), each with one escaped int (1, then its halves 2 and 3), closed
// by a 0 separator, each block differing from the first in one int.
func PackShapedSeed() []byte {
	var raw []byte
	for blk := 0; blk < 8; blk++ {
		for i := 0; i < 12; i++ {
			v := 2 + i%6
			if i == blk {
				v = 2 + (i+1)%6
			}
			raw = append(raw, byte(v))
			if i == 6 {
				raw = append(raw, 1, 2, 3)
			}
		}
		raw = append(raw, 0)
	}
	return raw
}

func TestInvariantsAfterEveryAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := make([]int32, 200)
	for i := range random {
		random[i] = int32(rng.Intn(3))
	}
	var packShaped []int32
	for _, b := range PackShapedSeed() {
		packShaped = append(packShaped, int32(b))
	}
	for name, seq := range map[string][]int32{"random": random, "pack-shaped": packShaped} {
		g := New()
		for i, v := range seq {
			g.Append(v)
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("%s: after symbol %d (%v): %v", name, i, seq[:i+1], err)
			}
		}
		if got := g.Expand(0); !slices.Equal(got, seq) {
			t.Fatalf("%s: final expansion mismatch", name)
		}
	}
}

// TestCursorInvariantAfterEveryAppend is the test above for streams the
// loop cursor works on. CheckInvariants flushes the cursor, so checking
// after every append would keep it from ever finishing an iteration:
// the cursor alone is checked where it stands after every append, and
// the whole grammar only now and then.
func TestCursorInvariantAfterEveryAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var perturbed []int32
	for i := 0; i < 40*len(loopBody); i++ {
		v := loopBody[i%len(loopBody)]
		if rng.Intn(40) == 0 {
			v = int32(rng.Intn(16))
		}
		perturbed = append(perturbed, v)
	}
	var nested []int32
	for o := 0; o < 12; o++ {
		nested = append(nested, 20, 21)
		for i := 0; i < 7; i++ {
			nested = append(nested, 1, 2, 3, 4)
		}
		nested = append(nested, 22)
	}
	for _, c := range []struct {
		name string
		seq  []int32
	}{{"perturbed loop", perturbed}, {"nested loops", nested}} {
		name, seq := c.name, c.seq
		g := New()
		armed, next := 0, 1+rng.Intn(100)
		for i, v := range seq {
			g.Append(v)
			if err := g.checkCursor(); err != nil {
				t.Fatalf("%s: after symbol %d: %v", name, i, err)
			}
			if g.cur != nilIdx {
				armed++
			}
			if next--; next == 0 {
				next = 1 + rng.Intn(100)
				if err := g.CheckInvariants(); err != nil {
					t.Fatalf("%s: after symbol %d: %v", name, i, err)
				}
			}
		}
		t.Logf("%s: cursor armed after %d of %d appends", name, armed, len(seq))
		if armed*10 < len(seq) {
			t.Fatalf("%s: cursor armed after %d of %d appends; the stream no longer exercises it", name, armed, len(seq))
		}
		if got := g.Expand(0); !slices.Equal(got, seq) {
			t.Fatalf("%s: final expansion mismatch", name)
		}
	}
}

func TestQuickRoundtrip(t *testing.T) {
	f := func(raw []byte) bool {
		seq := make([]int32, len(raw))
		for i, b := range raw {
			seq[i] = int32(b % 6)
		}
		g := New()
		for _, v := range seq {
			g.Append(v)
		}
		if err := g.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		if !slices.Equal(g.Expand(0), seq) {
			return false
		}
		sg := Serialized(g.Serialize())
		return slices.Equal(sg.Expand(0), seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeterministicSerialization(t *testing.T) {
	// Same input sequence => identical serialized grammar (needed for
	// the inter-process identity fast path).
	f := func(raw []byte) bool {
		seq := make([]int32, len(raw))
		for i, b := range raw {
			seq[i] = int32(b % 5)
		}
		g1, g2 := New(), New()
		for _, v := range seq {
			g1.Append(v)
			g2.Append(v)
		}
		return reflect.DeepEqual(g1.Serialize(), g2.Serialize())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	g := build(t, []int32{1, 2, 1, 2, 1, 2, 3})
	count := 0
	g.Walk(func(t int32, k int64) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("walk did not stop early: %d", count)
	}
}

func TestExpandCap(t *testing.T) {
	g := build(t, []int32{1, 2, 3, 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when exceeding cap")
		}
	}()
	g.Expand(2)
}

func TestSerializedRelabel(t *testing.T) {
	seq := []int32{0, 1, 0, 1, 2}
	g := build(t, seq)
	sg := Serialized(g.Serialize())
	m := []int32{10, 11, 12}
	rl, err := sg.Relabel(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{10, 11, 10, 11, 12}
	if got := rl.Expand(0); !slices.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if _, err := sg.Relabel([]int32{1}); err == nil {
		t.Fatal("expected error for missing mapping")
	}
}

// relabelRef is Relabel as it was before it rewrote a copy in place:
// decode every rule into its own slice, map the terminals, re-flatten.
func relabelRef(sg Serialized, mapping []int32) (Serialized, error) {
	rules := sg.Rules()
	out := Serialized{int32(len(rules))}
	for _, body := range rules {
		out = append(out, int32(len(body)))
		for _, s := range body {
			if s.Val >= 0 {
				if int(s.Val) >= len(mapping) {
					return nil, fmt.Errorf("sequitur: relabel: no mapping for terminal %d", s.Val)
				}
				s.Val = mapping[s.Val]
			}
			lo, hi := encExp(s.Exp)
			out = append(out, s.Val, lo, hi)
		}
	}
	return out, nil
}

// TestRelabelMatchesReference: same ints as the decode-and-reflatten
// oracle (and the same refusal one terminal short), the input left
// alone, MaxTerminal agreeing with the expansion, in one allocation.
func TestRelabelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		alpha := 1 + rng.Intn(40)
		g := New()
		top := int32(-1)
		for i, n := 0, rng.Intn(400); i < n; i++ {
			v := int32(rng.Intn(alpha))
			g.AppendRun(v, 1+int64(rng.Intn(3)))
			top = max(top, v)
		}
		sg := Serialized(g.Serialize())
		if got := sg.MaxTerminal(); got != top {
			t.Fatalf("trial %d: MaxTerminal %d, stream's largest terminal is %d", trial, got, top)
		}
		before := slices.Clone(sg)
		mapping := make([]int32, top+1)
		for i := range mapping {
			mapping[i] = int32(rng.Intn(1 << 20))
		}
		got, err := sg.Relabel(mapping)
		want, werr := relabelRef(sg, mapping)
		if err != nil || werr != nil || !slices.Equal(got, want) {
			t.Fatalf("trial %d: Relabel differs from the reference (%v / %v)", trial, err, werr)
		}
		if !slices.Equal(sg, before) {
			t.Fatalf("trial %d: Relabel rewrote its input", trial)
		}
		if top >= 0 {
			_, err := sg.Relabel(mapping[:top])
			_, werr := relabelRef(sg, mapping[:top])
			if err == nil || werr == nil || err.Error() != werr.Error() {
				t.Fatalf("trial %d: short mapping: %v, reference %v", trial, err, werr)
			}
		}
		if avg := testing.AllocsPerRun(20, func() { sg.Relabel(mapping) }); avg > 1 {
			t.Fatalf("trial %d: Relabel allocates %.1f times, want at most 1", trial, avg)
		}
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	bad := []Serialized{
		{},
		{0},
		{1, 2, 5, 1, 0}, // truncated
		{1, 1, -5, 1, 0},
		{1, 1, 3, 0, 0}, // exponent 0
		{2, 1, -1, 1, 0, 1, 4, 1, 0, 99},
	}
	for i, sg := range bad {
		if err := sg.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestLongRandomStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		n := 20000
		alpha := 2 + rng.Intn(8)
		seq := make([]int32, n)
		for i := range seq {
			// Mix of random and looped regions to stress both paths.
			if rng.Intn(4) == 0 {
				seq[i] = int32(rng.Intn(alpha))
			} else {
				seq[i] = int32(i % 3)
			}
		}
		g := New()
		for _, v := range seq {
			g.Append(v)
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.Equal(g.Expand(0), seq) {
			t.Fatalf("trial %d: roundtrip failed", trial)
		}
	}
}
