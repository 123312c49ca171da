package sequitur

import (
	"math/rand"
	"slices"
	"testing"
)

// TestShapeRelabel: over random grammars, a grammar is its shape
// relabeled by its vector, and a shape is its own shape. Renaming the
// terminals one-to-one keeps the shape; writing one terminal as another
// gives another shape.
func TestShapeRelabel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		alphabet := 1 + rng.Intn(40) // past Shape's linear scan too
		seq := make([]int32, 1+rng.Intn(400))
		for i := range seq {
			seq[i] = int32(rng.Intn(alphabet))
		}
		g := mkSer(seq)
		shape, vec := g.Shape()
		if back, err := shape.Relabel(vec); err != nil || !slices.Equal(back, g) {
			t.Fatalf("trial %d: shape relabeled by its vector is not the grammar (%v)", trial, err)
		}
		if again, v := shape.Shape(); !slices.Equal(again, shape) || len(v) != len(vec) {
			t.Fatalf("trial %d: a shape's shape is not itself", trial)
		}

		// Sequitur builds the renamed grammar from the renamed stream.
		perm := rng.Perm(alphabet + 5)
		renamed := make([]int32, len(seq))
		for i, v := range seq {
			renamed[i] = int32(perm[v])
		}
		if hShape, _ := mkSer(renamed).Shape(); !slices.Equal(hShape, shape) {
			t.Fatalf("trial %d: renaming terminals changed the shape", trial)
		}

		if len(vec) < 2 {
			continue
		}
		merged := slices.Clone(seq)
		for i, v := range merged {
			if v == vec[1] {
				merged[i] = vec[0]
			}
		}
		if mShape, _ := mkSer(merged).Shape(); slices.Equal(mShape, shape) {
			t.Fatalf("trial %d: writing one terminal as another kept the shape", trial)
		}
	}
}

// TestShapeVectorOrder: terminals are numbered in serialization order,
// so the start rule's come first.
func TestShapeVectorOrder(t *testing.T) {
	shape, vec := mkSer([]int32{7, 8, 7, 8, 9}).Shape()
	if !slices.Equal(vec, []int32{9, 7, 8}) {
		t.Fatalf("7 8 7 8 9 has vector %v", vec)
	}
	other, vec := mkSer([]int32{4, 5, 4, 5, 6}).Shape()
	if !slices.Equal(other, shape) || !slices.Equal(vec, []int32{6, 4, 5}) {
		t.Fatalf("4 5 4 5 6 has shape %v vector %v, want shape %v", other, vec, shape)
	}
	if third, _ := mkSer([]int32{1, 2, 1, 2, 3, 3}).Shape(); slices.Equal(third, shape) {
		t.Fatal("1 2 1 2 3 3 has the shape of 7 8 7 8 9")
	}
}

// TestShapeIntoAndRelabelsTo: ShapeInto gives Shape's result in the
// buffer it is handed, and RelabelsTo agrees with Relabel then Equal,
// for the grammar's own vector, a vector one terminal off, a short
// vector and another grammar, without allocating.
func TestShapeIntoAndRelabelsTo(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var buf Serialized
	prev := mkSer([]int32{0})
	for trial := 0; trial < 300; trial++ {
		alphabet := 1 + rng.Intn(40)
		seq := make([]int32, 1+rng.Intn(400))
		for i := range seq {
			seq[i] = int32(rng.Intn(alphabet))
		}
		g := mkSer(seq)
		shape, vec := g.Shape()
		var v []int32
		buf, v = g.ShapeInto(buf)
		if !slices.Equal(buf, shape) || !slices.Equal(v, vec) {
			t.Fatalf("trial %d: ShapeInto differs from Shape", trial)
		}
		off := slices.Clone(vec)
		off[rng.Intn(len(off))] += 1 + int32(rng.Intn(3))
		for _, c := range []struct {
			vec  []int32
			want Serialized
		}{{vec, g}, {off, g}, {vec[:len(vec)-1], g}, {vec, prev}} {
			r, err := shape.Relabel(c.vec)
			want := err == nil && slices.Equal(r, c.want)
			if got := shape.RelabelsTo(c.vec, c.want); got != want {
				t.Fatalf("trial %d: RelabelsTo says %v, Relabel then Equal %v", trial, got, want)
			}
		}
		if !shape.RelabelsTo(vec, g) {
			t.Fatalf("trial %d: a shape does not relabel to its grammar", trial)
		}
		if avg := testing.AllocsPerRun(10, func() { shape.RelabelsTo(vec, g) }); avg != 0 {
			t.Fatalf("trial %d: RelabelsTo allocates %.1f times", trial, avg)
		}
		prev = g
	}
}
