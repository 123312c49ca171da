package sequitur

import (
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

func TestPackUnpackRoundtrip(t *testing.T) {
	gs := []Serialized{
		mkSer([]int32{1, 2, 1, 2, 3}),
		mkSer([]int32{4}),
		mkSer(nil),
		mkSer([]int32{1, 2, 1, 2, 3}), // duplicate compresses in the pack
	}
	// Replace the empty grammar with a tiny one: packs of empty
	// grammars are legal too, but keep one realistic case.
	pack := Pack(gs)
	back, err := Unpack(pack)
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
// every Add, exactly the pack of the grammars so far, and that pack
// unpacks to them — so it does not matter who feeds it, or when.
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
		if want := Pack(gs); !slices.Equal(got, want) {
			t.Fatalf("after %d grammars the Packer holds %d ints, Pack gives %d", k+1, len(got), len(want))
		}
		back, err := Unpack(got)
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
	pack := Pack(gs)
	if len(pack) >= rawInts {
		t.Fatalf("pack did not compress: %d ints vs raw %d", len(pack), rawInts)
	}
	if len(pack)*3 > rawInts {
		t.Fatalf("pack only reached %d of %d ints; expected >3x on near-identical grammars", len(pack), rawInts)
	}
	back, err := Unpack(pack)
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
		back, err := Unpack(Pack(gs))
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

func TestUnpackRejectsGarbage(t *testing.T) {
	// A grammar over odd half-symbols (missing low half).
	g := New()
	g.Append(5) // hi half with no lo half before separator
	g.Append(0)
	if _, err := Unpack(Serialized(g.Serialize())); err == nil {
		t.Error("dangling half-symbol accepted")
	}
	// Trailing partial grammar (no separator).
	g2 := New()
	g2.Append(1)
	g2.Append(1)
	if _, err := Unpack(Serialized(g2.Serialize())); err == nil {
		t.Error("missing final separator accepted")
	}
}

func TestPackEmptySet(t *testing.T) {
	back, err := Unpack(Pack(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Fatalf("expected no grammars, got %d", len(back))
	}
}
