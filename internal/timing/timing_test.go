package timing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
)

func TestBinRoundtripErrorBound(t *testing.T) {
	f := func(raw uint32) bool {
		v := float64(raw%1_000_000_000) + 1
		for _, b := range []float64{1.05, 1.2, 2.0} {
			got := valueOf(binOf(v, math.Log(b)), b)
			if got < v*0.999999 { // must never undershoot (ceil)
				return false
			}
			if got > v*b*1.000001 { // relative error < b-1
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroAndNegative(t *testing.T) {
	if binOf(0, math.Log(1.2)) != zeroTerm || binOf(-5, math.Log(1.2)) != zeroTerm {
		t.Fatal("non-positive values must map to the zero terminal")
	}
	if valueOf(zeroTerm, 1.2) != 0 {
		t.Fatal("zero terminal must recover 0")
	}
}

func TestRecordReconstructErrorBound(t *testing.T) {
	const base = 1.2
	rng := rand.New(rand.NewSource(42))
	c := New(base)

	type call struct {
		term   int32
		f      mpispec.FuncID
		ts, te int64
	}
	var calls []call
	now := int64(1000)
	for i := 0; i < 2000; i++ {
		term := int32(rng.Intn(5))
		dur := int64(500 + rng.Intn(100000))
		gap := int64(100 + rng.Intn(50000))
		now += gap
		calls = append(calls, call{term: term, f: mpispec.FSend, ts: now, te: now + dur})
		now += dur
	}
	for _, cl := range calls {
		c.Record(cl.term, cl.f, cl.ts, cl.te)
	}
	durSeq := c.DurationGrammar().Expand(0)
	intSeq := c.IntervalGrammar().Expand(0)
	if len(durSeq) != len(calls) || len(intSeq) != len(calls) {
		t.Fatalf("grammar lengths %d/%d, want %d", len(durSeq), len(intSeq), len(calls))
	}
	r := NewReconstructor(base)
	for i, cl := range calls {
		ts, te := r.Next(cl.term, cl.f, durSeq[i], intSeq[i])
		if relErr(float64(ts), float64(cl.ts)) > base-1+1e-9 {
			t.Fatalf("call %d: tStart error %.4f exceeds bound", i, relErr(float64(ts), float64(cl.ts)))
		}
		wantDur := float64(cl.te - cl.ts)
		gotDur := float64(te - ts)
		if relErr(gotDur, wantDur) > base-1+1e-9 {
			t.Fatalf("call %d: duration error %.4f exceeds bound", i, relErr(gotDur, wantDur))
		}
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}

func TestSeriesEveryCallWithinBound(t *testing.T) {
	// The paper's §3.2 guarantee is per call, not on average: every
	// reconstructed start time and duration must be within base−1
	// relative error. Exercise the public batch API on a mixed stream
	// (several signatures, bursty gaps, two orders of magnitude of
	// durations) and assert the bound call by call.
	const base = 1.2
	rng := rand.New(rand.NewSource(7))
	c := New(base)

	var terms []int32
	var funcs []mpispec.FuncID
	var starts, durs []int64
	now := int64(500)
	fids := []mpispec.FuncID{mpispec.FSend, mpispec.FRecv, mpispec.FWaitall, mpispec.FAllreduce}
	for i := 0; i < 3000; i++ {
		term := int32(rng.Intn(7))
		f := fids[rng.Intn(len(fids))]
		dur := int64(200 + rng.Intn(200_000))
		gap := int64(50 + rng.Intn(80_000))
		if rng.Intn(20) == 0 { // occasional long silence (checkpoint-style)
			gap += 5_000_000
		}
		now += gap
		terms = append(terms, term)
		funcs = append(funcs, f)
		starts = append(starts, now)
		durs = append(durs, dur)
		c.Record(term, f, now, now+dur)
		now += dur
	}

	r := NewReconstructor(base)
	times, err := r.Series(terms, funcs, c.DurationGrammar().Expand(0), c.IntervalGrammar().Expand(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != len(terms) {
		t.Fatalf("Series returned %d times for %d calls", len(times), len(terms))
	}
	bound := r.Bound(mpispec.FSend) + 1e-9
	for i, ct := range times {
		if e := relErr(float64(ct.Start), float64(starts[i])); e > bound {
			t.Fatalf("call %d: start error %.4f exceeds per-call bound %.4f", i, e, bound)
		}
		if e := relErr(float64(ct.Duration()), float64(durs[i])); e > bound {
			t.Fatalf("call %d: duration error %.4f exceeds per-call bound %.4f", i, e, bound)
		}
	}
}

func TestSeriesLengthMismatch(t *testing.T) {
	r := NewReconstructor(1.2)
	if _, err := r.Series([]int32{0, 1}, []mpispec.FuncID{mpispec.FSend}, []int32{0, 0}, []int32{0, 0}); err == nil {
		t.Fatal("mismatched stream lengths must error")
	}
}

func TestRegularLoopTimingCompressesWell(t *testing.T) {
	// Identical durations and intervals in a loop: both grammars must
	// stay O(1) regardless of iteration count.
	c := New(1.2)
	now := int64(0)
	for i := 0; i < 100000; i++ {
		now += 10000
		c.Record(0, mpispec.FSend, now, now+5000)
		now += 5000
	}
	if n := len(c.DurationGrammar()); n > 64 {
		t.Errorf("duration grammar %d ints for a perfect loop", n)
	}
	// Intervals are measured against the reconstructed (overshooting)
	// clock, so their bins fluctuate even in a perfect loop; the
	// grammar must still be far sublinear (the paper's Figure 10 shows
	// interval grammars compress worst).
	if n := len(c.IntervalGrammar()); n > 1000 {
		t.Errorf("interval grammar %d ints for a perfect loop of 100k", n)
	}
}

func TestNoisyTimingStillBounded(t *testing.T) {
	// With ±5% noise the bins mostly coincide; the grammar grows but
	// the error bound must still hold.
	const base = 1.2
	rng := rand.New(rand.NewSource(3))
	c := New(base)
	var starts, ends []int64
	now := int64(100)
	for i := 0; i < 5000; i++ {
		dur := int64(float64(8000) * (1 + 0.05*rng.Float64()))
		gap := int64(float64(2000) * (1 + 0.05*rng.Float64()))
		now += gap
		starts = append(starts, now)
		ends = append(ends, now+dur)
		c.Record(1, mpispec.FRecv, now, now+dur)
		now += dur
	}
	durSeq := c.DurationGrammar().Expand(0)
	intSeq := c.IntervalGrammar().Expand(0)
	r := NewReconstructor(base)
	for i := range starts {
		ts, _ := r.Next(1, mpispec.FRecv, durSeq[i], intSeq[i])
		if relErr(float64(ts), float64(starts[i])) > base-1+1e-9 {
			t.Fatalf("call %d start error out of bound", i)
		}
	}
}

func TestPerFunctionBase(t *testing.T) {
	c := New(1.2)
	c.SetFuncBase(mpispec.FBarrier, 2.0)
	// A duration of 1000ns bins differently under base 2.
	c.Record(0, mpispec.FBarrier, 0, 1000)
	c.Record(1, mpispec.FSend, 0, 1000)
	seq := c.DurationGrammar().Expand(0)
	if seq[0] == seq[1] {
		t.Fatal("per-function base had no effect")
	}
	r := NewReconstructor(1.2)
	r.SetFuncBase(mpispec.FBarrier, 2.0)
	_, te := r.Next(0, mpispec.FBarrier, seq[0], 0)
	if relErr(float64(te), 1000) > 1.0+1e-9 { // base 2 → error < 1.0
		t.Fatalf("barrier duration error %f", relErr(float64(te), 1000))
	}
}

func TestInvalidBasePanics(t *testing.T) {
	for _, b := range []float64{1, 0.5, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for base %v", b)
				}
			}()
			New(b)
		}()
	}
}

func TestGrammarSizesReported(t *testing.T) {
	c := New(1.2)
	for i := 0; i < 100; i++ {
		c.Record(0, mpispec.FSend, int64(i*100), int64(i*100+50))
	}
	dg := c.DurationGrammar()
	if n := len(dg.Expand(0)); n != 100 {
		t.Fatalf("duration grammar expands to %d calls, want 100", n)
	}
	if err := dg.Validate(); err != nil {
		t.Fatal(err)
	}
	if dg.Bytes() <= 0 {
		t.Fatal("empty serialized duration grammar")
	}
	ig := c.IntervalGrammar()
	if err := sequitur.Serialized(ig).Validate(); err != nil {
		t.Fatal(err)
	}
}

var newSink *Compressor

// TestNewAllocs pins a compressor's construction: the struct, which
// holds its two grammars, and each grammar's first symbol and rule. The
// per-function base map is made by the first SetFuncBase, which no
// caller but a test has ever used.
func TestNewAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { newSink = New(1.2) }); allocs > 5 {
		t.Fatalf("timing.New allocates %.0f times, want at most 5", allocs)
	}
	var r *Reconstructor
	if allocs := testing.AllocsPerRun(100, func() { r = NewReconstructor(1.2) }); allocs > 1 {
		t.Fatalf("timing.NewReconstructor allocates %.0f times, want at most 1", allocs)
	}
	// Reading the unmade map is the common path.
	if b := r.Bound(mpispec.FSend); math.Abs(b-0.2) > 1e-12 {
		t.Fatalf("bound without overrides = %v, want 0.2", b)
	}
}
