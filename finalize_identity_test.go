package pilgrim_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/mpi"
)

// The finalize pipeline must write the same bytes at every GOMAXPROCS,
// from one proc (where the walk's fan-out runs inline and one goroutine
// runs at a time) up: per-rank work writes only its own
// slot, and every ordering-sensitive pass (the CST fold, grammar dedup,
// rank map) stays sequential in rank order. These tests pin that
// guarantee over the golden cases: odd and even rank counts, lossy
// timing, salvage finalize, and the collector's premerged path.

// identityBody is a small SPMD body exercising point-to-point (with
// rank-dependent peers, so grammars differ across ranks) plus a
// collective; it degrades gracefully to a single rank.
func identityBody(iters int) func(p *mpi.Proc) {
	return func(p *mpi.Proc) {
		p.Init()
		w := p.World()
		n := p.Size()
		buf := p.Alloc(8)
		out := p.Alloc(8)
		for i := 0; i < iters; i++ {
			p.Compute(1000)
			if n > 1 {
				right := (p.Rank() + 1) % n
				left := (p.Rank() - 1 + n) % n
				p.Sendrecv(buf.Ptr(0), 1, mpi.Double, right, 7,
					out.Ptr(0), 1, mpi.Double, left, 7, w, nil)
			}
			p.Allreduce(buf.Ptr(0), out.Ptr(0), 1, mpi.Double, mpi.OpSum, w)
		}
		buf.Free()
		out.Free()
		p.Finalize()
	}
}

// snapshotsFor runs identityBody on n ranks and snapshots every tracer
// exactly once, so repeated finalizes consume identical inputs.
func snapshotsFor(t *testing.T, n int, opts core.Options) []*core.Snapshot {
	t.Helper()
	return snapshotsOf(t, n, opts, identityBody(6))
}

// snapshotsOf is snapshotsFor over any SPMD body.
func snapshotsOf(t *testing.T, n int, opts core.Options, body func(p *mpi.Proc)) []*core.Snapshot {
	t.Helper()
	tracers := make([]*core.Tracer, n)
	ics := make([]mpi.Interceptor, n)
	for i := range tracers {
		tracers[i] = core.NewTracer(i, nil, opts)
		ics[i] = tracers[i]
	}
	so := simOpts()
	so.Interceptors = ics
	if err := mpi.RunOpt(n, so, body); err != nil {
		t.Fatal(err)
	}
	snaps := make([]*core.Snapshot, n)
	for i, tr := range tracers {
		snaps[i] = tr.Snapshot()
	}
	return snaps
}

func traceBytes(t *testing.T, f *trace.File) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// procsSweep is the GOMAXPROCS settings the byte-identity sweeps run
// the finalize at.
var procsSweep = []int{1, 2, 3, 8}

// workerSweep finalizes snaps at every procsSweep setting, failing
// unless every trace is byte-identical to the one-proc one. The
// setting is restored afterwards.
func workerSweep(t *testing.T, snaps []*core.Snapshot, opts core.Options, info *trace.SalvageInfo) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, p := range procsSweep {
		runtime.GOMAXPROCS(p)
		f, _ := core.FinalizeSnapshots(snaps, opts, info)
		got := traceBytes(t, f)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: trace differs from GOMAXPROCS=1 (%d vs %d bytes)", p, len(got), len(want))
		}
	}
}

func TestFinalizeWorkersByteIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16, 33} {
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			snaps := snapshotsFor(t, n, core.Options{})
			workerSweep(t, snaps, core.Options{}, nil)
		})
	}
}

func TestFinalizeWorkersByteIdenticalLossyTiming(t *testing.T) {
	opts := core.Options{TimingMode: trace.TimingLossy, TimingBase: 1.2}
	for _, n := range []int{2, 7, 16} {
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			snaps := snapshotsFor(t, n, opts)
			workerSweep(t, snaps, opts, nil)
		})
	}
}

func TestFinalizeWorkersByteIdenticalSalvage(t *testing.T) {
	const n = 7
	snaps := snapshotsFor(t, n, core.Options{})
	info := &trace.SalvageInfo{Reason: "identity test", FailedRanks: []int32{2, 5}, Calls: make([]int64, n)}
	for i, s := range snaps {
		info.Calls[i] = s.Calls
	}
	workerSweep(t, snaps, core.Options{}, info)
}

// TestFinalizePremergedWorkersByteIdentical covers the collector path:
// tables merged incrementally in an arbitrary arrival order must
// finalize (at every GOMAXPROCS) to the same bytes as a local finalize
// of the same snapshots.
func TestFinalizePremergedWorkersByteIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{1, 2, 7, 16, 33} {
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			snaps := snapshotsFor(t, n, core.Options{})
			local, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
			want := traceBytes(t, local)

			// Feed the incremental merge out of rank order (a fixed
			// stride walks every rank for the sizes used here).
			inc := cst.NewIncremental(n)
			stride := 3
			if n%stride == 0 {
				stride = 1
			}
			for i := 0; i < n; i++ {
				r := (i * stride) % n
				if err := inc.Add(r, snaps[r].Table); err != nil {
					t.Fatal(err)
				}
			}
			merged := inc.Result()
			for _, p := range procsSweep {
				runtime.GOMAXPROCS(p)
				f, _ := core.FinalizePremerged(snaps, merged, 0, core.Options{}, nil)
				if got := traceBytes(t, f); !bytes.Equal(got, want) {
					t.Errorf("premerged GOMAXPROCS=%d: trace differs from local finalize", p)
				}
			}
		})
	}
}
