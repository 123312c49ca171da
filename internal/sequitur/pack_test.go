package sequitur

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func mkSer(seq []int32) Serialized {
	g := New()
	for _, v := range seq {
		g.Append(v)
	}
	return Serialized(g.Serialize())
}

// packAll is a Packer fed gs in order.
func packAll(gs []Serialized) Serialized {
	p := NewPacker()
	for _, g := range gs {
		p.Add(g)
	}
	return p.Finish()
}

func TestPackUnpackRoundtrip(t *testing.T) {
	gs := []Serialized{
		mkSer([]int32{1, 2, 1, 2, 3}),
		mkSer([]int32{4}),
		mkSer(nil),
		mkSer([]int32{1, 2, 1, 2, 3}), // duplicate compresses in the pack
	}
	// Replace the empty grammar with a tiny one: packs of empty
	// grammars are legal too, but keep one realistic case.
	pack := packAll(gs)
	back, err := Unpack(pack, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(gs) {
		t.Fatalf("unpacked %d grammars, want %d", len(back), len(gs))
	}
	for i := range gs {
		if !slices.Equal(gs[i].Expand(0), back[i].Expand(0)) {
			t.Fatalf("grammar %d changed through pack", i)
		}
	}
}

// TestPackerMatchesPack: a Packer fed grammar by grammar holds, after
// every Add, exactly what a fresh Packer fed the grammars so far holds,
// and that pack unpacks to them — so it does not matter who feeds it,
// or when.
func TestPackerMatchesPack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := make([]int32, 120)
	for i := range base {
		base[i] = int32(rng.Intn(12))
	}
	var gs []Serialized
	p := NewPacker()
	for k := 0; k < 24; k++ {
		seq := slices.Clone(base)
		seq[rng.Intn(len(seq))] = int32(100 + k) // near-identical ranks
		if k%7 == 0 {
			seq = seq[:rng.Intn(len(seq))] // and a few that are not
		}
		gs = append(gs, mkSer(seq))
		p.Add(gs[k])
		got := p.Finish()
		if want := packAll(gs); !slices.Equal(got, want) {
			t.Fatalf("after %d grammars the Packer holds %d ints, a fresh one %d", k+1, len(got), len(want))
		}
		back, err := Unpack(got, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(gs) {
			t.Fatalf("after %d grammars the pack unpacks to %d", k+1, len(back))
		}
		for i := range gs {
			if !slices.Equal(back[i], gs[i]) {
				t.Fatalf("after %d grammars: grammar %d changed through the pack", k+1, i)
			}
		}
	}
}

func TestPackCompressesSimilarGrammars(t *testing.T) {
	// 64 grammars identical except the final terminal: the pack must
	// be much smaller than the raw concatenation.
	var gs []Serialized
	base := make([]int32, 0, 200)
	for i := 0; i < 100; i++ {
		base = append(base, int32(i%5), int32(i%3))
	}
	rawInts := 0
	for r := 0; r < 64; r++ {
		seq := append(append([]int32(nil), base...), int32(1000+r))
		g := mkSer(seq)
		gs = append(gs, g)
		rawInts += len(g)
	}
	pack := packAll(gs)
	if len(pack) >= rawInts {
		t.Fatalf("pack did not compress: %d ints vs raw %d", len(pack), rawInts)
	}
	if len(pack)*3 > rawInts {
		t.Fatalf("pack only reached %d of %d ints; expected >3x on near-identical grammars", len(pack), rawInts)
	}
	back, err := Unpack(pack, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gs {
		if !slices.Equal(gs[i].Expand(0), back[i].Expand(0)) {
			t.Fatalf("grammar %d corrupted", i)
		}
	}
}

func TestPackRandomGrammars(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		var gs []Serialized
		for k := 0; k < 1+rng.Intn(8); k++ {
			n := rng.Intn(300)
			seq := make([]int32, n)
			for i := range seq {
				seq[i] = int32(rng.Intn(10))
			}
			gs = append(gs, mkSer(seq))
		}
		back, err := Unpack(packAll(gs), 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(back) != len(gs) {
			t.Fatalf("trial %d: count mismatch", trial)
		}
		for i := range gs {
			if !slices.Equal(gs[i].Expand(0), back[i].Expand(0)) {
				t.Fatalf("trial %d grammar %d corrupted", trial, i)
			}
		}
	}
}

// escaped is a grammar whose serialized form holds ints the pack must
// escape: a terminal of 2²⁹ and one of MaxInt32, an exponent of 2³⁰
// (expLo escaped) and one of 2³³+1 (expHi > 0), beside rule references.
func escaped() Serialized {
	g := New()
	for i := 0; i < 3; i++ {
		g.Append(1 << 29)
		g.Append(math.MaxInt32)
		g.Append(7)
	}
	g.AppendRun(3, 1<<30)
	g.Append(1 << 29)
	g.AppendRun(4, 1<<33+1)
	return Serialized(g.Serialize())
}

// packInts counts what Add appends for gs: the ints, two more terminals
// per escaped int, and one separator per grammar.
func packInts(gs []Serialized) (symbols, escapes int64) {
	for _, g := range gs {
		for _, v := range g {
			if v >= 1<<29 || v < -(1<<29) {
				escapes++
			}
		}
		symbols += int64(len(g)) + 1
	}
	return symbols + 2*escapes, escapes
}

// TestPackEscapes: ints at or past 2²⁹ in magnitude, large exponents
// included, survive the pack as an escape and two halves; every other
// int is one symbol.
func TestPackEscapes(t *testing.T) {
	gs := []Serialized{escaped(), mkSer([]int32{1, 2, 1, 2, 3}), escaped()}
	if err := gs[0].Validate(); err != nil {
		t.Fatal(err)
	}
	pack := packAll(gs)
	symbols, escapes := packInts(gs)
	if escapes < 4 {
		t.Fatalf("only %d escaped ints in the test grammars", escapes)
	}
	if n := pack.InputLen(); n != symbols {
		t.Fatalf("pack expands to %d symbols, want %d", n, symbols)
	}
	back, err := Unpack(pack, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(back, gs, slices.Equal[Serialized]) {
		t.Fatal("escaped grammars changed through the pack")
	}
}

// TestUnpackCapsInts: the cap counts grammar ints, not symbols.
func TestUnpackCapsInts(t *testing.T) {
	gs := []Serialized{escaped(), mkSer([]int32{5, 6, 5, 6})}
	ints := int64(len(gs[0]) + len(gs[1]))
	pack := packAll(gs)
	if _, err := Unpack(pack, ints); err != nil {
		t.Fatalf("cap of exactly %d ints: %v", ints, err)
	}
	if _, err := Unpack(pack, ints-1); err == nil {
		t.Fatalf("%d ints unpacked under a cap of %d", ints, ints-1)
	}
}

// packHalves is the pack older writers made: every int two terminals,
// its 16-bit halves +1, and 0 between grammars.
func packHalves(gs []Serialized) Serialized {
	g := New()
	for _, sg := range gs {
		for _, v := range sg {
			g.Append(int32(uint32(v)>>16) + 1)
			g.Append(int32(uint32(v)&0xFFFF) + 1)
		}
		g.Append(0)
	}
	return Serialized(g.Serialize())
}

func TestUnpackHalvesRoundtrip(t *testing.T) {
	gs := []Serialized{escaped(), mkSer([]int32{1, 2, 1, 2, 3}), mkSer([]int32{4})}
	back, err := UnpackHalves(packHalves(gs), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(back, gs, slices.Equal[Serialized]) {
		t.Fatal("grammars changed through the 16-bit-half pack")
	}
}

func TestUnpackRejectsGarbage(t *testing.T) {
	// The grammar [1 1 5 1 0] (one rule: terminal 5, once) packs as one
	// terminal per int, zigzag + 2. The last five cases write its 5 some
	// other way. Read anyway, each would still give a valid grammar, so
	// only the pack's own checks refuse them.
	five := []int32{4, 4, 12, 4, 2}
	if _, err := Unpack(mkSer(append(slices.Clone(five), packSep)), 0); err != nil {
		t.Fatal(err)
	}
	for name, seq := range map[string][]int32{
		"missing final separator":          five,
		"empty grammar":                    append(slices.Clone(five), packSep, packSep),
		"dangling escape":                  append(slices.Clone(five), packSep, packEscape),
		"escape cut by a separator":        {4, 4, packEscape, packBase, packSep},
		"half below 2":                     {4, 4, packEscape, packEscape, packBase + 10, 4, 2, packSep},
		"half past 16 bits":                {4, 4, packEscape, packBase + 0x4000, packBase + 0x10000, 4, 2, packSep},
		"escape of a one-symbol int":       {4, 4, packEscape, packBase, packBase + 10, 4, 2, packSep},
		"one symbol past the zigzag range": {4, 4, packBase + packDirect, 4, 2, packSep},
	} {
		if _, err := Unpack(mkSer(seq), 0); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	for name, seq := range map[string][]int32{
		"dangling half-symbol":    {5, 0},
		"missing final separator": {1, 1},
	} {
		if _, err := UnpackHalves(mkSer(seq), 0); err == nil {
			t.Errorf("16-bit halves: %s accepted", name)
		}
	}
}

// FuzzPackRoundTrip: Unpack(packAll(gs)) is gs. A byte below 0x80 appends
// a small terminal, one up to 0xBF a terminal of at least 2²⁹, one up
// to 0xFE a run of up to 31·2²⁸ copies (expLo escaped, expHi > 0), and
// 0xFF ends a grammar.
func FuzzPackRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 1, 2, 3, 0xFF, 4, 4, 4, 0xFF})
	f.Add([]byte{0x80, 0x87, 1, 0x80, 0x87, 1, 0xC8, 0xFF, 0x80, 0x87, 1, 0xDF, 0xC4})
	f.Add([]byte{1, 2, 0xC0, 1, 2, 0xE1, 0xFF, 1, 2, 0xBF, 1, 2, 0xFF, 0xFF, 1, 2})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var gs []Serialized
		g := New()
		for _, b := range append(raw, 0xFF) {
			switch {
			case b < 0x80:
				g.Append(int32(b & 15))
			case b < 0xC0:
				v := int32(1<<29) + int32(b&7)
				if b&7 == 7 {
					v = math.MaxInt32
				}
				g.Append(v)
			case b < 0xFF:
				g.AppendRun(int32(b&3), 1+int64(b&0x1F)<<28)
			case g.InputLen() > 0:
				gs = append(gs, Serialized(g.Serialize()))
				g = New()
			}
		}
		back, err := Unpack(packAll(gs), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(gs) {
			t.Fatalf("unpacked %d grammars, packed %d", len(back), len(gs))
		}
		for i := range gs {
			if !slices.Equal(back[i], gs[i]) {
				t.Fatalf("grammar %d changed through the pack", i)
			}
		}
	})
}

func TestPackEmptySet(t *testing.T) {
	back, err := Unpack(packAll(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Fatalf("expected no grammars, got %d", len(back))
	}
}
