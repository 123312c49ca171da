package timing

import (
	"math"
	"sync"
)

// binTable answers binOf and valueOf for one base by lookup. It is
// derived from the two functions themselves, so for every value it
// covers it returns exactly what they return:
//
//   - thr[k] is the smallest float64 v ≥ 1 with binOf(v) ≥ k+binBias,
//     found by bisecting the float's bit pattern around exp((k−1)·ln b)
//     and evaluating binOf at each probe. thr[0] = 1 and the entry after
//     the last threshold is +Inf, so a scan stops without a bounds test.
//   - start[i] is binOf−binBias at the smallest value of bucket i, a
//     bucket being one binary octave of [1, 2⁶³) split by the top
//     mantBits bits of the mantissa. A bucket is at most ln b wide in
//     log space (until mantBits reaches its cap), so the scan from
//     start[i] crosses at most two thresholds.
//   - vals[t] = valueOf(t) for every term binOf reaches on [1, 2⁶³) and
//     every fractional-interval term below them; vals[0] = 0.
//
// A bin is exact wherever binOf is monotone in v, which
// TestBinTableMatchesMath checks at every threshold. Values outside
// [1, 2⁶³) — fractional intervals, zero, negatives, NaN — and terms
// past vals go through the math functions, which stay the definition.
// A table is immutable once built and shared by every compressor and
// reconstructor of its base.
type binTable struct {
	shift  uint   // 52 − mantBits
	origin uint64 // bucket number of 1.0: 1023 << mantBits
	start  []int32
	thr    []float64
	vals   []float64
}

const (
	// maxTableBins caps the thresholds of one base (~1 MB of table at
	// the cap, b ≈ 1.00067); a base closer to 1 keeps the math path.
	maxTableBins = 1 << 16
	// maxMantBits caps the bucket index at 63·256 entries. Bases below
	// e^(1/256) ≈ 1.0039 then scan a few more thresholds per bin.
	maxMantBits = 8
	// maxCachedBases bounds the process-wide cache against a stream of
	// distinct bases (per-file bases read back from many traces).
	maxCachedBases = 16
)

// bin returns binOf(v) for v in [1, 2⁶³).
func (t *binTable) bin(v float64) int32 {
	k := t.start[math.Float64bits(v)>>t.shift-t.origin]
	for t.thr[k+1] <= v {
		k++
	}
	return k + binBias
}

// buildBinTable returns b's table, or nil when b is not a valid base
// or would need more than maxTableBins thresholds.
func buildBinTable(b, logB float64) *binTable {
	if !ValidBase(b) || 63*math.Ln2/logB > maxTableBins {
		return nil
	}
	bin := func(bits uint64) int32 { return binOf(math.Float64frombits(bits), logB) - binBias }
	top := bin(math.Float64bits(0x1p63) - 1)

	var m uint
	for m < maxMantBits && math.Ldexp(1, -int(m)) > logB {
		m++
	}
	t := &binTable{shift: 52 - m, origin: 1023 << m}
	t.start = make([]int32, 63<<m)
	for i := range t.start {
		t.start[i] = bin((t.origin + uint64(i)) << t.shift)
	}

	t.thr = make([]float64, top+2)
	t.thr[0] = 1
	for k := int32(1); k <= top; k++ {
		guess := math.Float64bits(math.Exp(float64(k-1) * logB))
		t.thr[k] = math.Float64frombits(firstBinAtLeast(bin, k, math.Float64bits(t.thr[k-1]), guess))
	}
	t.thr[top+1] = math.Inf(1)

	t.vals = make([]float64, binBias+top+1)
	for i := range t.vals {
		t.vals[i] = valueOf(int32(i), b)
	}
	return t
}

// firstBinAtLeast returns the smallest float bit pattern p ≥ from with
// bin(p) ≥ k, starting the search at guess. Positive floats order like
// their bit patterns, so it gallops out from guess to bracket the
// threshold and bisects the bracket; only bin decides.
func firstBinAtLeast(bin func(uint64) int32, k int32, from, guess uint64) uint64 {
	if bin(from) >= k {
		return from
	}
	lo, hi := from, max(guess, from+1) // bin(lo) < k
	for step := uint64(1); bin(hi) < k; step *= 2 {
		lo, hi = hi, hi+step
	}
	for step := uint64(1); step < hi-lo; step *= 2 {
		if bin(hi-step) < k {
			lo = hi - step
			break
		}
		hi -= step
	}
	for hi-lo > 1 { // bin(lo) < k ≤ bin(hi)
		mid := lo + (hi-lo)/2
		if bin(mid) >= k {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// tables caches one binTable per base, keyed by the base's bits so a
// lookup allocates nothing. A nil entry records a base over the cap.
var tables struct {
	sync.Mutex
	m map[uint64]*binTable
}

// tableFor returns b's shared table, building it on the first request.
// An invalid base gets no table and takes no cache slot.
func tableFor(b, logB float64) *binTable {
	if !ValidBase(b) {
		return nil
	}
	key := math.Float64bits(b)
	tables.Lock()
	defer tables.Unlock()
	if t, ok := tables.m[key]; ok {
		return t
	}
	if tables.m == nil {
		tables.m = make(map[uint64]*binTable)
	}
	if len(tables.m) >= maxCachedBases {
		for k := range tables.m {
			delete(tables.m, k)
			break
		}
	}
	t := buildBinTable(b, logB)
	tables.m[key] = t
	return t
}
