package core

import (
	"slices"
	"testing"
	"unsafe"

	"github.com/hpcrepro/pilgrim/internal/metrics"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/timing"
)

// postSampled feeds one call and reports whether it was a timed one
// and, if so, how many calls it stood for. No clock is involved: the
// next call is timed exactly when the countdown has run out. A timed
// call whose gap was drawn at the full law is also observed by an
// attached collector's histograms.
func postSampled(tr *Tracer, i int) (timed, observed bool, weight int) {
	timed, weight = tr.countdown == 0, int(tr.gap)+1
	observed = timed && tr.ramp == maxRamp
	feed(tr, mpispec.FSend, sendArgs(int64(i%7), int64(i%3), int64(tr.Rank)), int64(i*10), int64(i*10+5))
	return timed, observed, weight
}

// TestSamplingAccounting sweeps every stream length 0..200 on 64 rank
// seeds: the timed calls' weights and the untimed tail add up to the
// calls made (each call is represented exactly once), the post
// histogram holds the timed calls past the ramp and nothing else, and
// after a flush from ProbeStats, and again from Snapshot, the three
// counters are exact.
func TestSamplingAccounting(t *testing.T) {
	for rank := 0; rank < 64; rank++ {
		for length := 0; length <= 200; length++ {
			col := metrics.NewCollector()
			tr := NewTracer(rank, nil, Options{Collector: col})
			tr.MemAlloc(0x1000, 64, 0)
			observedCalls, represented := 0, 0
			for i := 0; i < length; i++ {
				timed, observed, weight := postSampled(tr, i)
				if timed {
					represented += weight
				} else if i < warmCalls {
					t.Fatalf("rank %d: call %d of the warm-up was not timed", rank, i)
				}
				if observed {
					observedCalls++
				}
			}
			tail := int(tr.gap - tr.countdown)
			if represented+tail != length || int64(length) != tr.NCalls {
				t.Fatalf("rank %d length %d: timed calls stand for %d, tail %d, NCalls %d",
					rank, length, represented, tail, tr.NCalls)
			}
			if got := col.PostNs.Snapshot().Count; got != int64(observedCalls) || (length == 200 && got == 0) {
				t.Fatalf("rank %d length %d: post histogram holds %d, timed calls past the ramp %d", rank, length, got, observedCalls)
			}
			for _, flush := range []func(){func() { tr.ProbeStats() }, func() { tr.Snapshot() }} {
				flush()
				calls, hits, misses := tracerCounters(col)
				if calls != tr.NCalls || hits+misses != calls || misses != int64(tr.table.Len()) {
					t.Fatalf("rank %d length %d: calls/hits/misses = %d/%d/%d, NCalls %d, CST %d",
						rank, length, calls, hits, misses, tr.NCalls, tr.table.Len())
				}
			}
		}
	}
}

// timedIndices returns which of a rank's first n calls are timed.
func timedIndices(rank, n int) []int {
	tr := NewTracer(rank, nil, Options{})
	tr.MemAlloc(0x1000, 64, 0)
	var idx []int
	for i := 0; i < n; i++ {
		if timed, _, _ := postSampled(tr, i); timed {
			idx = append(idx, i)
		}
	}
	return idx
}

// TestSamplingPerRank: the timed calls are a function of the rank, so
// a run repeats, and differ between ranks, so no loop position is the
// timed one everywhere.
func TestSamplingPerRank(t *testing.T) {
	const n = 2000
	a := timedIndices(5, n)
	if !slices.Equal(a, timedIndices(5, n)) {
		t.Fatal("two tracers of rank 5 time different calls")
	}
	if len(a) < n/40 || len(a) > n/8 {
		t.Fatalf("%d of %d calls timed, want about one in 16.5", len(a), n)
	}
	for _, other := range []int{0, 4, 6, 5 + 1<<16} {
		if slices.Equal(a, timedIndices(other, n)) {
			t.Fatalf("ranks 5 and %d time the same calls", other)
		}
	}
}

// TestSamplingWeightsEachCallOnce checks the estimator's premise over
// 4096 rank seeds: past the ramp, a call at any fixed index is timed
// with the weight that makes it count once on average. A call is timed
// one time in 16.5 and then stands for 16.5 calls on average; were the
// gap law tied to the index (a stride, a short-period generator) some
// indices would count twice and others never.
func TestSamplingWeightsEachCallOnce(t *testing.T) {
	const ranks, from, to = 4096, 100, 400
	weight := make([]float64, to)
	for rank := 0; rank < ranks; rank++ {
		tr := NewTracer(rank, nil, Options{})
		tr.MemAlloc(0x1000, 64, 0)
		for i := 0; i < to; i++ {
			if timed, _, w := postSampled(tr, i); timed {
				weight[i] += float64(w)
			}
		}
	}
	// One index over 4096 ranks has a standard error of 0.07 (the
	// weight's variance is E[D²]/E[D] − 1 = 20.7 for D uniform on 1..32);
	// the mean over the 300 indices is far tighter.
	sum := 0.0
	for i := from; i < to; i++ {
		w := weight[i] / ranks
		if w < 0.7 || w > 1.3 {
			t.Errorf("call %d counts %.3f times on average, want 1", i, w)
		}
		sum += w
	}
	if mean := sum / (to - from); mean < 0.98 || mean > 1.02 {
		t.Errorf("calls %d..%d count %.4f times on average, want 1", from, to, mean)
	}
}

// TestSizes pins the per-rank allocations in their size classes, so
// that trace_live_bytes_per_rank on a 4096-rank run does not move. The
// tracer is a rank's whole state and fits the 896 B class with the
// allocator's 8 B header, which an object over 512 B with pointers
// carries; the slabs its first call adds hold no pointers and fill
// 768 B; a lossy rank's compressor, padded, fills 512 B without one.
func TestSizes(t *testing.T) {
	allocated := func(size uintptr, pointers bool) uintptr {
		if pointers && size > 512 {
			return size + 8
		}
		return size
	}
	for _, c := range []struct {
		name         string
		bytes, class uintptr
	}{
		{"Tracer", allocated(unsafe.Sizeof(Tracer{}), true), 896},
		{"slabs", allocated(unsafe.Sizeof(slabs{}), false), 768},
		{"timing.Compressor", allocated(unsafe.Sizeof(timing.Compressor{}), true), 512},
	} {
		if c.bytes > c.class {
			t.Errorf("%s takes %d bytes, want at most %d", c.name, c.bytes, c.class)
		}
	}
}
