package sequitur_test

import (
	"math/rand"
	"slices"
	"testing"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/workloads"
)

// run is one AppendRun call of a test stream.
type run struct {
	t int32
	k int64
}

func singles(seq []int32) []run {
	out := make([]run, len(seq))
	for i, t := range seq {
		out[i] = run{t, 1}
	}
	return out
}

// differential feeds stream to the slab grammar and to two copies of
// the pointer reference, comparing Serialize() every `every` appends
// and at the end. The reference is built twice because it ranges over
// a Go map when it eliminates a unit rule: the two copies agreeing
// shows the comparison does not hang on that order.
func differential(t testing.TB, name string, stream []run, every int) {
	t.Helper()
	differentialAt(t, name, stream, func() int { return every })
}

// differentialAt is differential comparing gap() appends after the last
// comparison. A comparison reads the grammar, which flushes the loop
// cursor, so only a stream compared at gaps longer than its loop bodies
// lets the cursor complete an iteration; between comparisons the cursor
// is checked where it stands.
func differentialAt(t testing.TB, name string, stream []run, gap func() int) {
	t.Helper()
	g, ref, ref2 := sequitur.New(), sequitur.NewRef(), sequitur.NewRef()
	compare := func(at int) {
		t.Helper()
		want := ref.Serialize()
		if again := ref2.Serialize(); !slices.Equal(want, again) {
			t.Fatalf("%s: reference disagrees with itself after %d appends", name, at)
		}
		if got := g.Serialize(); !slices.Equal(got, want) {
			t.Fatalf("%s: after %d appends\n got %v\nwant %v", name, at, got, want)
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("%s: after %d appends: %v", name, at, err)
		}
		if st := g.Stats(); st.SerializedB != len(want)*4 {
			t.Fatalf("%s: after %d appends: Stats().SerializedB = %d, Serialize() is %d bytes", name, at, st.SerializedB, len(want)*4)
		}
	}
	next := gap()
	for i, r := range stream {
		g.AppendRun(r.t, r.k)
		ref.AppendRun(r.t, r.k)
		ref2.AppendRun(r.t, r.k)
		if err := g.CheckCursor(); err != nil {
			t.Fatalf("%s: after %d appends: %v", name, i+1, err)
		}
		if next--; next <= 0 {
			compare(i + 1)
			next = gap()
		}
	}
	compare(len(stream))
}

// randomStream draws n terminals from a small alphabet.
func randomStream(rng *rand.Rand, n int) []run {
	alpha := 2 + rng.Intn(7)
	seq := make([]int32, n)
	for i := range seq {
		seq[i] = int32(rng.Intn(alpha))
	}
	return singles(seq)
}

// loopStream is a loop nest whose bodies are occasionally perturbed,
// the shape an iterative solver with a data-dependent branch traces.
func loopStream(rng *rand.Rand, n int) []run {
	inner := make([]int32, 2+rng.Intn(12))
	for i := range inner {
		inner[i] = int32(rng.Intn(16))
	}
	var seq []int32
	for len(seq) < n {
		seq = append(seq, 100+int32(rng.Intn(3)))
		for it, iters := 0, 1+rng.Intn(20); it < iters; it++ {
			for _, t := range inner {
				if rng.Intn(40) == 0 {
					t = int32(rng.Intn(16))
				}
				seq = append(seq, t)
			}
		}
		if rng.Intn(5) == 0 {
			inner[rng.Intn(len(inner))] = int32(rng.Intn(16))
		}
	}
	return singles(seq[:n])
}

// runStream is dominated by AppendRun calls with large counts.
func runStream(rng *rand.Rand, n int) []run {
	out := make([]run, n)
	for i := range out {
		out[i] = run{int32(rng.Intn(4)), 1 + int64(rng.Intn(6))}
		if rng.Intn(10) == 0 {
			out[i].k = 1 + rng.Int63n(1<<40)
		}
	}
	return out
}

func TestDifferentialVsReference(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 10
	}
	gens := []struct {
		name string
		gen  func(*rand.Rand, int) []run
	}{{"random", randomStream}, {"loops", loopStream}, {"runs", runStream}}
	for _, gn := range gens {
		for seed := 1; seed <= seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			differential(t, gn.name, gn.gen(rng, 200+rng.Intn(3000)), 97)
		}
	}

	// Call streams of real programs (the ones internal/genapp's tests
	// generate mini-apps from, plus an irregular one): every unique
	// grammar of the trace, expanded back into its terminal stream.
	// Lossy timing adds the duration and interval grammars' streams.
	progs := []struct {
		name  string
		procs int
	}{{"stencil2d", 9}, {"cellular", 8}, {"cg", 8}}
	for _, p := range progs {
		body, err := workloads.Get(p.name, 30, p.procs)
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := pilgrim.Run(p.procs, pilgrim.Options{TimingMode: pilgrim.TimingLossy}, body)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range [][]sequitur.Serialized{f.Grammars, f.DurGrammars, f.IntGrammars} {
			for _, sg := range set {
				differential(t, p.name, singles(sg.Expand(0)), 101)
			}
		}
	}
}

// FuzzAppendDifferential maps bytes to a small-alphabet stream (the
// high bits occasionally ask for a run) and checks the slab grammar
// against the reference after every few appends.
func FuzzAppendDifferential(f *testing.F) {
	f.Add([]byte("abcabcabcabdabcabc"))
	f.Add([]byte{1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 3, 3, 0x81, 0x81, 4})
	f.Add([]byte("abcdbcabcdabcdbcabcd"))
	f.Add(sequitur.PackShapedSeed())
	for _, seed := range collisionSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		stream := make([]run, len(raw))
		for i, b := range raw {
			stream[i] = run{int32(b & 7), 1 + int64(b>>7)*int64(b>>3&15)}
		}
		differential(t, "fuzz", stream, 7)
	})
}

// naiveExpand is the test-local reference for Serialized.Expand: it
// decodes the rules (Serialized.Rules, which Expand does not use) and
// emits one terminal at a time, re-walking a rule on every reference
// and every repetition — what Expand did before it filled in bulk.
func naiveExpand(sg sequitur.Serialized) []int32 {
	rules := sg.Rules()
	var out []int32
	var walk func(r int)
	walk = func(r int) {
		for _, s := range rules[r] {
			for i := int64(0); i < s.Exp; i++ {
				if s.Val < 0 {
					walk(int(-s.Val - 1))
				} else {
					out = append(out, s.Val)
				}
			}
		}
	}
	walk(0)
	return out
}

// shortRunStream is runStream with exponents small enough to
// materialize: mostly runs, a few of them a few hundred long.
func shortRunStream(rng *rand.Rand, n int) []run {
	out := runStream(rng, n)
	for i := range out {
		out[i].k = 1 + out[i].k%300
	}
	return out
}

func TestExpandMatchesNaiveReference(t *testing.T) {
	check := func(name string, sg sequitur.Serialized) {
		t.Helper()
		want := naiveExpand(sg)
		n := sg.InputLen()
		if n != int64(len(want)) {
			t.Fatalf("%s: InputLen %d, reference expands to %d", name, n, len(want))
		}
		if got := sg.Expand(0); !slices.Equal(got, want) {
			t.Fatalf("%s: Expand differs from the reference (%d vs %d terminals)", name, len(got), len(want))
		}
		// At the cap: the same sequence. One below: nil and the length,
		// and Expand panics.
		got, gn := sg.ExpandCapped(n)
		if gn != n || (n > 0 && !slices.Equal(got, want)) {
			t.Fatalf("%s: ExpandCapped(%d) = %d terminals, n=%d", name, n, len(got), gn)
		}
		if n < 2 {
			return
		}
		if got, gn := sg.ExpandCapped(n - 1); got != nil || gn != n {
			t.Fatalf("%s: ExpandCapped(%d) = %d terminals, n=%d; want nil, %d", name, n-1, len(got), gn, n)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Expand(%d) of %d terminals did not panic", name, n-1, n)
				}
			}()
			sg.Expand(n - 1)
		}()
	}

	seeds := 40
	if testing.Short() {
		seeds = 5
	}
	gens := []struct {
		name string
		gen  func(*rand.Rand, int) []run
	}{{"random", randomStream}, {"loops", loopStream}, {"runs", shortRunStream}}
	for _, gn := range gens {
		for seed := 1; seed <= seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			g := sequitur.New()
			for _, r := range gn.gen(rng, 200+rng.Intn(3000)) {
				g.AppendRun(r.t, r.k)
			}
			check(gn.name, g.Serialize())
		}
	}

	// Rule references with exponents, nested: the shapes the doubling
	// copy and the copy-from-first-expansion paths take. A is reused
	// after its first expansion, inside and outside B.
	const A, B = -2, -3
	check("nested exponents", sequitur.Serialized{
		3,
		4, B, 3, 0, A, 1, 0, 9, 2, 0, B, 1, 0, // S -> B^3 A 9^2 B
		2, 1, 1, 0, 2, 4, 0, // A -> 1 2^4
		3, A, 5, 0, 7, 1, 0, A, 1, 0, // B -> A^5 7 A
	})
	check("empty", sequitur.New().Serialize())

	// The real call streams of the differential test above.
	for _, p := range []struct {
		name  string
		procs int
	}{{"stencil2d", 9}, {"cellular", 8}, {"cg", 8}} {
		body, err := workloads.Get(p.name, 30, p.procs)
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := pilgrim.Run(p.procs, pilgrim.Options{TimingMode: pilgrim.TimingLossy}, body)
		if err != nil {
			t.Fatal(err)
		}
		rankMap := sequitur.New() // the grammar an older file stores the rank map as
		for _, v := range f.RankMap {
			rankMap.Append(v)
		}
		for _, set := range [][]sequitur.Serialized{f.Grammars, f.DurGrammars, f.IntGrammars, {rankMap.Serialize()}} {
			for _, sg := range set {
				check(p.name, sg)
			}
		}
	}
}

// TestExpandCappedHugeRuns: a grammar of 2^40-long runs reports its
// length without allocating it.
func TestExpandCappedHugeRuns(t *testing.T) {
	g := sequitur.New()
	var want int64
	for _, r := range runStream(rand.New(rand.NewSource(7)), 500) {
		g.AppendRun(r.t, r.k)
		want += r.k
	}
	sg := sequitur.Serialized(g.Serialize())
	if got, n := sg.ExpandCapped(1 << 20); got != nil || n != want {
		t.Fatalf("ExpandCapped = %d terminals, n=%d; want nil, %d", len(got), n, want)
	}
}
