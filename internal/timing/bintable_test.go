package timing

import (
	"math"
	"math/rand"
	"testing"
)

// refBinOf and refValueOf are the exponential bin and its inverse as
// plain math: the oracle that the table and the math fallback are both
// held to, kept here so a change to either cannot move the oracle.
func refBinOf(v, logB float64) int32 {
	if v <= 0 {
		return zeroTerm
	}
	bin := int32(math.Ceil(math.Log(v) / logB))
	t := bin + binBias
	if t < 1 {
		t = 1
	}
	return t
}

func refValueOf(term int32, b float64) float64 {
	if term == zeroTerm {
		return 0
	}
	return math.Pow(b, float64(term-binBias))
}

var tableBases = []float64{1.001, 1.01, 1.05, 1.2, 1.5, 2, 3.7, 10}

// TestBinTableMatchesMath holds every table to the math definition: at
// each threshold and one and two ulps either side of it, at every power
// of two of the int64 range and the float just below it, on random
// integers and floats, and for every stored value.
func TestBinTableMatchesMath(t *testing.T) {
	samples := 1_000_000
	if testing.Short() {
		samples = 20_000
	}
	for _, b := range tableBases {
		e := newExpBase(b)
		if e.tab == nil {
			t.Fatalf("base %v: no table", b)
		}
		logB := math.Log(b)
		check := func(v float64) {
			if got, want := e.bin(v), refBinOf(v, logB); got != want {
				t.Fatalf("base %v: bin(%v) = %d, math gives %d", b, v, got, want)
			}
		}
		thr := e.tab.thr
		for k := 1; k < len(thr)-1; k++ {
			v := thr[k]
			if refBinOf(v, logB)-binBias < int32(k) || refBinOf(math.Nextafter(v, 0), logB)-binBias >= int32(k) {
				t.Fatalf("base %v: %v is not the smallest value of bin %d", b, v, k)
			}
			lo, hi := v, v
			for i := 0; i < 3; i++ {
				check(lo)
				check(hi)
				lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
			}
		}
		for p := 0; p <= 63; p++ {
			v := math.Ldexp(1, p)
			check(v)
			check(math.Nextafter(v, 0))
		}
		rng := rand.New(rand.NewSource(int64(math.Float64bits(b))))
		for i := 0; i < samples; i++ {
			check(float64(rng.Int63() >> rng.Intn(63)))
			check(math.Ldexp(1+rng.Float64(), rng.Intn(70)-4))
		}
		for term := range e.tab.vals {
			if got, want := e.value(int32(term)), refValueOf(int32(term), b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("base %v: value(%d) = %v, math gives %v", b, term, got, want)
			}
		}
		for _, term := range []int32{-1, int32(len(e.tab.vals)), math.MaxInt32} {
			if got, want := e.value(term), refValueOf(term, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("base %v: value(%d) = %v past the table, math gives %v", b, term, got, want)
			}
		}
	}
}

// TestBinTableOutsideRange: values the table does not cover — zero,
// negatives, fractions, 2⁶³ and up, NaN — take the math path.
func TestBinTableOutsideRange(t *testing.T) {
	e := newExpBase(1.2)
	for _, v := range []float64{0, -1, math.Inf(-1), 1e-300, 0.5, math.Nextafter(1, 0), 0x1p63, 1e300, math.Inf(1)} {
		if got, want := e.bin(v), refBinOf(v, e.logB); got != want {
			t.Fatalf("bin(%v) = %d, math gives %d", v, got, want)
		}
	}
}

// TestBinTableSharedAndCapped: one table per base, none for an invalid
// base or one so close to 1 that its table would pass the cap, and a
// bounded cache.
func TestBinTableSharedAndCapped(t *testing.T) {
	if a, b := newExpBase(1.2).tab, newExpBase(1.2).tab; a == nil || a != b {
		t.Fatal("two expBases of one base must share one table")
	}
	for _, b := range []float64{1, 0.5, -2, math.NaN(), math.Inf(1), 1 + 0x1p-50, 1.0001} {
		if newExpBase(b).tab != nil {
			t.Fatalf("base %v got a table", b)
		}
	}
	for i := 0; i < 3*maxCachedBases; i++ {
		newExpBase(2 + float64(i)/8)
	}
	tables.Lock()
	n := len(tables.m)
	tables.Unlock()
	if n > maxCachedBases {
		t.Fatalf("cache holds %d bases, cap %d", n, maxCachedBases)
	}
}

func FuzzBinTable(f *testing.F) {
	f.Add(1.2, 1000.0)
	f.Add(1.001, 12345.678)
	f.Add(2.0, 0x1p62)
	f.Add(1.05, 0.5)
	f.Add(3.7, -1.0)
	f.Add(1.01, 9.2e18)
	f.Fuzz(func(t *testing.T, b, v float64) {
		e := newExpBase(b)
		if e.tab == nil {
			return
		}
		term := e.bin(v)
		if want := refBinOf(v, math.Log(b)); term != want {
			t.Fatalf("base %v: bin(%v) = %d, math gives %d", b, v, term, want)
		}
		if got, want := e.value(term), refValueOf(term, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("base %v: value(%d) = %v, math gives %v", b, term, got, want)
		}
	})
}

func BenchmarkBin(b *testing.B) {
	e := newExpBase(1.2)
	vs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range vs {
		vs[i] = float64(rng.Int63n(1 << 30))
	}
	var sink int32
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += e.bin(vs[i&1023])
		}
	})
	b.Run("math", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += binOf(vs[i&1023], e.logB)
		}
	})
	_ = sink
}

func BenchmarkBuildBinTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buildBinTable(1.2, math.Log(1.2))
	}
}
