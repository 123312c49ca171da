package sequitur_test

import (
	"math/rand"
	"slices"
	"testing"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/workloads"
)

// The loop cursor's tests. Reading a grammar flushes the cursor, so an
// oracle that compares after every few appends sees flushes and hardly
// ever a completed iteration; the streams here are compared with
// ref_test.go's grammar at points further apart than their loop bodies
// are long, or at hand-picked ones.

// nest is a node of a loop nest: a terminal, or (body != nil) a loop
// running its body iters times.
type nest struct {
	t     int32
	body  []nest
	iters int
}

func randomNest(rng *rand.Rand, alpha, depth int) []nest {
	body := make([]nest, 1+rng.Intn(9))
	for i := range body {
		if depth < 3 && rng.Intn(5) == 0 {
			body[i] = nest{body: randomNest(rng, alpha, depth+1), iters: 1 + rng.Intn(30)}
		} else {
			body[i] = nest{t: int32(rng.Intn(alpha))}
		}
	}
	return body
}

// nestStream is n terminals of random loop nests to depth 3 with exact
// iteration counts over an alphabet of alpha symbols, one terminal in
// `stray` replaced by a random one (never, if stray is 0).
func nestStream(rng *rand.Rand, n, alpha, stray int) []run {
	seq := make([]int32, 0, n)
	var emit func(body []nest)
	emit = func(body []nest) {
		for _, b := range body {
			for i := 0; b.body != nil && i < b.iters && len(seq) < n; i++ {
				emit(b.body)
			}
			if b.body == nil && len(seq) < n {
				if stray > 0 && rng.Intn(stray) == 0 {
					b.t = int32(rng.Intn(alpha))
				}
				seq = append(seq, b.t)
			}
		}
	}
	for len(seq) < n {
		emit([]nest{{body: randomNest(rng, alpha, 1), iters: 1 + rng.Intn(30)}})
	}
	return singles(seq)
}

// nestedBody is a loop body of a few terminals from an alphabet of
// alpha around up to two inner loops, each its own nestedBody run up
// to 20 times, to depth levels; it is cut at 300 terminals.
func nestedBody(rng *rand.Rand, depth, alpha int) []int32 {
	var body []int32
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		body = append(body, int32(rng.Intn(alpha)))
		if depth > 1 && i < 2 && rng.Intn(2) == 0 {
			inner := nestedBody(rng, depth-1, alpha)
			body = append(body, iterations(inner, 1+rng.Intn(20))...)
		}
	}
	return body[:min(len(body), 300)]
}

// cursorWork counts the appends of stream made while the cursor was
// armed, how many of those belonged to an iteration the cursor went on
// to complete (the rest were replayed by a flush), and the completed
// iterations.
func cursorWork(stream []run) (armed, skipped, completed int) {
	g := sequitur.New()
	since := 0 // armed appends since the cursor last armed
	for _, r := range stream {
		if !g.CursorArmed() {
			since = 0
		} else {
			armed++
			since++
		}
		if r.k == 1 && g.CursorCompletesOn(r.t) {
			completed++
			skipped += since
			since = 0 // the cursor re-arms for the next iteration
		}
		g.AppendRun(r.t, r.k)
	}
	return armed, skipped, completed
}

func TestDifferentialSparse(t *testing.T) {
	seeds := 3000
	if testing.Short() {
		seeds = 300
	}
	armed, completed, total := 0, 0, 0
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 100 + rng.Intn(1500)
		stray := []int{0, 40, 300}[rng.Intn(3)]
		var name string
		var stream []run
		switch seed % 4 {
		case 0:
			name, stream = "nest2-5", nestStream(rng, n, 2+rng.Intn(4), stray)
		case 1, 2:
			name, stream = "nest3-14", nestStream(rng, n, 3+rng.Intn(12), stray)
		default:
			name, stream = "loops", loopStream(rng, n)
			if seed%8 == 7 {
				name, stream = "random", randomStream(rng, n)
			}
		}
		differentialAt(t, name, stream, func() int { return 1 + rng.Intn(400) })
		a, _, c := cursorWork(stream)
		armed, completed, total = armed+a, completed+c, total+len(stream)
	}
	// Real call streams, whose loop bodies nest rule references and
	// exponents: every unique call grammar of five programs, replayed
	// and compared at points further apart than their bodies (up to a
	// few hundred terminals) are long.
	iters := 20
	if testing.Short() {
		iters = 6
	}
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"cellular", "bt", "sp", "mg", "milc"} {
		const procs = 9 // bt and sp want a square
		body, err := workloads.Get(name, iters, procs)
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := pilgrim.Run(procs, pilgrim.Options{}, body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, sg := range f.Grammars {
			stream := singles(sg.Expand(0))
			differentialAt(t, name, stream, func() int { return 300 + rng.Intn(3000) })
			a, _, c := cursorWork(stream)
			armed, completed, total = armed+a, completed+c, total+len(stream)
		}
	}
	// The point of the sparse comparison: the cursor has to be at work
	// on these streams, not flushed by the oracle before it gets going.
	t.Logf("%d appends, %d with the cursor armed, %d iterations completed by it", total, armed, completed)
	if completed < 5*seeds {
		t.Fatalf("the cursor completed %d iterations over %d streams; they no longer exercise it", completed, seeds)
	}
}

// iterations is n copies of body.
func iterations(body []int32, n int) []int32 {
	var seq []int32
	for i := 0; i < n; i++ {
		seq = append(seq, body...)
	}
	return seq
}

// TestSerializeMidIteration: a reader arriving at any point of an
// iteration sees the grammar the reference has at that append, and the
// appends after it still end at the reference's grammar.
func TestSerializeMidIteration(t *testing.T) {
	body := sequitur.LoopBody
	stream := iterations(body, 8)
	for cut := 0; cut <= 2*len(body); cut++ {
		at := 4*len(body) + cut
		g, ref := sequitur.New(), sequitur.NewRef()
		for _, v := range stream[:at] {
			g.Append(v)
			ref.Append(v)
		}
		if cut%len(body) > 0 && !g.CursorArmed() {
			t.Fatalf("cut %d: cursor not armed %d symbols into an iteration", cut, cut%len(body))
		}
		if got, want := g.Serialize(), ref.Serialize(); !slices.Equal(got, want) {
			t.Fatalf("cut %d: mid-iteration\n got %v\nwant %v", cut, got, want)
		}
		if g.CursorArmed() {
			t.Fatalf("cut %d: Serialize left the cursor armed", cut)
		}
		for _, v := range stream[at:] {
			g.Append(v)
			ref.Append(v)
		}
		if got, want := g.Serialize(), ref.Serialize(); !slices.Equal(got, want) {
			t.Fatalf("cut %d: after the rest\n got %v\nwant %v", cut, got, want)
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
	}
}

// TestLoopCursorHazards feeds hand-written streams to the grammar and
// the reference and compares once, at the end (and wherever a case says
// to look at the cursor), so the cursor completes what it can.
func TestLoopCursorHazards(t *testing.T) {
	const a, b, c, d, p, q, x int32 = 0, 1, 2, 3, 4, 5, 6
	abc := []int32{a, b, c}
	long := make([]int32, 70)
	for i := range long {
		long[i] = 10 + int32(i)
	}
	huge := make([]int32, 1100) // longer than the cursor holds (maxHold)
	for i := range huge {
		huge[i] = 100 + int32(i)
	}
	cat := func(parts ...[]int32) []run {
		return singles(slices.Concat(parts...))
	}
	type probe struct {
		at    int  // after this many appends
		armed bool // the cursor must be armed, or must not be
	}
	type hazard struct {
		name      string
		stream    []run
		probes    []probe
		completes int // iterations the cursor must complete, at least
	}
	inner := iterations([]int32{1, 2, 3, 4}, 20) // R -> x A^20 y, A -> 1 2 3 4: 82 terminals
	nested82 := slices.Concat([]int32{x}, inner, []int32{d})
	broken82 := slices.Clone(nested82)
	broken82[70] = 99
	cases := []hazard{
		// The completed iteration makes p R^3 a second time: the digram
		// on the bumped run's left has to be found and folded.
		{"left digram of the bumped run exists", cat([]int32{p}, iterations(abc, 3), []int32{q, p}, iterations(abc, 3)),
			[]probe{{19, true}, {21, false}}, 1},
		// R^2 a is already in the grammar when the second R^2 a arrives:
		// linkMade folds it, and the cursor has nothing to stand on.
		{"run and first symbol already a digram", cat(iterations(abc, 2), []int32{a, d}, iterations(abc, 2), []int32{a, b, c, a, b, c}),
			[]probe{{15, false}}, 0},
		// R -> B x y, B -> p q, and S holds R^2 B: the slow path's
		// (R^2, B) of the next iteration matches it, so verify refuses.
		{"run and first reference already a digram", cat(iterations([]int32{p, q, x, d}, 2), []int32{p, q, c}, iterations([]int32{p, q, x, d}, 3)),
			[]probe{{8 + 3 + 8 + 1, false}, {8 + 3 + 8 + 2, false}}, 0},
		{"run of five mid-iteration", append(cat(iterations(sequitur.LoopBody, 4), sequitur.LoopBody[:6]), run{6, 5}, run{7, 1}, run{8, 1}),
			[]probe{{4*13 + 6, true}, {4*13 + 7, false}}, 1},
		// R -> a X d with X -> b c used elsewhere: the slow path forms
		// (R^j, X)-shaped digrams whose left side is not fresh.
		{"body with a rule reference", cat([]int32{b, c, x}, iterations([]int32{a, b, c, d}, 6)),
			[]probe{{3 + 4*4 + 1, true}, {3 + 4*4 + 2, true}, {3 + 4*4 + 3, true}}, 3},
		// R -> a b^2 c.
		{"body with an exponent", cat(iterations([]int32{a, b, b, c}, 6)),
			[]probe{{4*4 + 1, true}, {4*4 + 2, true}, {4*4 + 3, true}}, 3},
		// R -> x A^3 d, A -> a b c, broken in the second A.
		{"nested body flushed inside its inner rule", cat(iterations([]int32{x, a, b, c, a, b, c, a, b, c, d}, 4), []int32{x, a, b, c, a, q}, iterations([]int32{x, a, b, c, a, b, c, a, b, c, d}, 3)),
			[]probe{{4*11 + 5, true}, {4*11 + 6, false}}, 3},
		// The flush replays 70 terminals from inside A's run.
		{"nested body longer than 64 terminals, flushed in a run", cat(iterations(nested82, 4), broken82, iterations(nested82, 2)),
			[]probe{{4*82 + 70, true}, {4*82 + 71, false}}, 3},
		// R -> x B d B p, B -> A^3, A -> a b: two levels of references
		// and exponents.
		{"two levels of references with exponents", cat(iterations([]int32{x, a, b, a, b, a, b, d, a, b, a, b, a, b, p}, 6)),
			nil, 3},
		{"body longer than 64 terminals, flushed at its last symbol", cat(iterations(long, 4), long[:69], []int32{x}, long),
			[]probe{{4*70 + 69, true}, {4*70 + 70, false}}, 1},
		{"body longer than 64 terminals, completed", cat(iterations(long, 6)),
			[]probe{{5*70 + 69, true}, {6 * 70, true}}, 4},
		// The slow path keeps an iteration the cursor could not flush
		// from the Go stack.
		{"body longer than the cursor holds", cat(iterations(huge, 4)),
			[]probe{{3*1100 + 1, false}, {3*1100 + 700, false}}, 0},
		// A two-symbol rule: the cursor re-arms after each iteration.
		{"two-symbol rule", cat(iterations([]int32{a, b}, 20)),
			[]probe{{2*3 + 1, true}}, 15},
	}
	// A stray symbol at every position of the body, then a clean iteration.
	for pos := range sequitur.LoopBody {
		broken := slices.Clone(sequitur.LoopBody)
		broken[pos] = 99
		cases = append(cases, hazard{"mismatch at body position", cat(iterations(sequitur.LoopBody, 4), broken, iterations(sequitur.LoopBody, 2)),
			[]probe{{4*13 + pos, true}, {4*13 + pos + 1, false}}, 2})
	}

	for _, tc := range cases {
		g, ref := sequitur.New(), sequitur.NewRef()
		probes := tc.probes
		completed := 0
		for i, r := range tc.stream {
			if r.k == 1 && g.CursorCompletesOn(r.t) {
				completed++
			}
			g.AppendRun(r.t, r.k)
			ref.AppendRun(r.t, r.k)
			if err := g.CheckCursor(); err != nil {
				t.Fatalf("%s: after %d appends: %v", tc.name, i+1, err)
			}
			if len(probes) > 0 && probes[0].at == i+1 {
				if g.CursorArmed() != probes[0].armed {
					t.Fatalf("%s: after %d appends: cursor armed = %v, want %v", tc.name, i+1, !probes[0].armed, probes[0].armed)
				}
				probes = probes[1:]
			}
		}
		if len(probes) > 0 {
			t.Fatalf("%s: probe at %d never reached", tc.name, probes[0].at)
		}
		if completed < tc.completes {
			t.Fatalf("%s: the cursor completed %d iterations, want at least %d", tc.name, completed, tc.completes)
		}
		if got, want := g.Serialize(), ref.Serialize(); !slices.Equal(got, want) {
			t.Fatalf("%s:\n got %v\nwant %v", tc.name, got, want)
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// FuzzLoopCursorDifferential decodes bytes four at a time into a loop:
// body length, iteration count, the position of one stray symbol (often
// past the end: none), and a byte choosing the body's symbols and how
// many appends pass before the next comparison with the reference, so
// the fuzzer reaches completed iterations instead of flushes. A first
// byte in [224, 240) asks for a nested body instead, drawn from the
// four bytes: inner loops to depth 1-4, up to ~300 terminals, over an
// alphabet small enough that inner and outer bodies share symbols.
func FuzzLoopCursorDifferential(f *testing.F) {
	f.Add([]byte{3, 5, 255, 200, 3, 5, 255, 200})
	f.Add([]byte{13, 9, 40, 255, 13, 9, 255, 17})
	f.Add([]byte{4, 6, 255, 90, 2, 3, 255, 91, 4, 6, 255, 90, 2, 3, 255, 91, 4, 6, 9, 90})
	f.Add([]byte{250, 4, 255, 255, 250, 1, 69, 255})
	f.Add([]byte{5, 3, 255, 130, 1, 1, 255, 3, 5, 3, 255, 130, 1, 1, 255, 3, 5, 2, 255, 130})
	f.Add([]byte{227, 6, 255, 255, 225, 5, 255, 255, 231, 4, 70, 255})
	f.Add([]byte{226, 9, 255, 120, 3, 2, 255, 120, 226, 9, 200, 255})
	f.Add([]byte{235, 3, 255, 255, 239, 2, 255, 255, 224, 12, 255, 40})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var stream []run
		var gaps []int
		for ; len(raw) >= 4 && len(stream) < 1<<14; raw = raw[4:] {
			var body []int32
			switch {
			case raw[0] >= 224 && raw[0] < 240:
				seed := int64(raw[0])<<24 | int64(raw[1])<<16 | int64(raw[2])<<8 | int64(raw[3])
				rng := rand.New(rand.NewSource(seed))
				body = nestedBody(rng, 1+int(raw[0])%4, 3+int(raw[3]&3)*2)
			default:
				n := 1 + int(raw[0])%14
				if raw[0] >= 240 {
					n = 60 + int(raw[0])%16 // around 64
				}
				for i := 0; i < n; i++ {
					body = append(body, int32(int(raw[3]&3)*5+i))
				}
			}
			start := len(stream)
			for it := 0; it <= int(raw[1])%30; it++ {
				stream = append(stream, singles(body)...)
			}
			if at := start + int(raw[2])*(1+len(body)/64); at < len(stream) {
				stream[at].t = 100 + int32(raw[3]>>6)
			}
			gaps = append(gaps, (1+2*int(raw[3]))*(1+len(body)/64))
		}
		differentialAt(t, "fuzz", stream, func() int {
			if len(gaps) == 0 {
				return 1 << 20
			}
			gap := gaps[0]
			gaps = gaps[1:]
			return gap
		})
	})
}

// TestLoopCursorCoverage replays the unique call grammars of every
// workload skeleton into fresh grammars and counts the appends the
// cursor saved: those of iterations it completed, which never touched
// the grammar. (An armed append whose iteration ends in a flush is paid
// for then.) cellular also runs at the benchmark's 16x400. A change
// that quietly stops arming on real call streams fails here instead of
// on a ledger.
func TestLoopCursorCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("traces every workload skeleton")
	}
	floor := map[string]int{"stencil2d": 85, "cg": 55, "cellular": 90, "bt": 93, "sp": 93, "mg": 92}
	type scale struct {
		name         string
		procs, iters int
	}
	var runs []scale
	for _, w := range workloads.List() {
		runs = append(runs, scale{w.Name, 16, 100})
	}
	runs = append(runs, scale{"cellular", 16, 400})
	for _, sc := range runs {
		body, err := workloads.Get(sc.name, sc.iters, sc.procs)
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := pilgrim.Run(sc.procs, pilgrim.Options{}, body)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		armed, skipped, total := 0, 0, 0
		for _, sg := range f.Grammars {
			stream := singles(sg.Expand(0))
			a, s, _ := cursorWork(stream)
			armed, skipped, total = armed+a, skipped+s, total+len(stream)
		}
		pct := 100 * skipped / max(total, 1)
		t.Logf("%-14s %dx%-3d %3d%% of %7d appends in %2d unique grammars saved (%3d%% made with the cursor armed)",
			sc.name, sc.procs, sc.iters, pct, total, len(f.Grammars), 100*armed/max(total, 1))
		if pct < floor[sc.name] {
			t.Errorf("%s %dx%d: the cursor saved %d%% of appends, want at least %d%%", sc.name, sc.procs, sc.iters, pct, floor[sc.name])
		}
	}
}
