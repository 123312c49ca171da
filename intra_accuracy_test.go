package pilgrim_test

import (
	"testing"
	"time"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/mpi"
)

// interrupted is how long a hook call runs before the comparison below
// takes it for interrupted. No hook's own work comes near it in these
// runs: the largest slab a call grows is copied in tens of µs. A call
// this long lost its thread: the OS ran another process (go test ./...
// runs package test binaries side by side, two on a 2-core machine) or
// the GC stopped the world.
const interrupted = 100 * time.Microsecond

// stopwatch times a rank's tracer from outside: every hook that
// FinalizeStats.IntraNs accounts for, between two clock reads of its
// own. It leaves out a call that ran longer than interrupted, and
// keeps what that call added to the tracer's IntraNs, for the estimate
// to leave out too. An interruption is milliseconds long, thousands of
// calls, and the two sides weigh it differently: a timed call enters
// IntraNs once for itself and once for every untimed call it stands
// for, an untimed one does not enter it at all, and the stopwatch takes
// every call once. One interruption decides the ratio unless both sides
// drop the call it hit. A call that creates a communicator is kept: it
// blocks in the id agreement for as long as the group's slowest member
// takes, legitimately, and the encoder counts that wait exactly.
type stopwatch struct {
	*pilgrim.Tracer
	ns      int64 // the kept calls' time
	dropped int64 // what the dropped calls added to IntraNs
	drops   int
}

func (s *stopwatch) Post(rec *mpispec.CallRecord) {
	o := mpispec.ObjectOf(rec.Func)
	s.time(o != nil && !o.Free && o.Kind == mpispec.KComm, func() { s.Tracer.Post(rec) })
}

func (s *stopwatch) MemAlloc(addr, size uint64, device int32) {
	s.time(false, func() { s.Tracer.MemAlloc(addr, size, device) })
}

func (s *stopwatch) MemFree(addr uint64) {
	s.time(false, func() { s.Tracer.MemFree(addr) })
}

// time runs one hook call between two clock reads; keep says the call
// is kept however long it runs.
func (s *stopwatch) time(keep bool, hook func()) {
	intra := s.Tracer.IntraNs
	w0 := time.Now()
	hook()
	d := time.Since(w0)
	if d > interrupted && !keep {
		s.dropped += s.Tracer.IntraNs - intra
		s.drops++
		return
	}
	s.ns += d.Nanoseconds()
}

// intraRatio traces one skeleton run and returns IntraNs, the tracer's
// own estimate from the calls it timed, over the stopwatches' total,
// both without the interrupted calls, with the number of calls traced
// and of calls dropped.
func intraRatio(t *testing.T, name string, procs, iters int) (ratio float64, calls int64, drops int) {
	body := workload(t, name, iters, procs)
	tracers := make([]*pilgrim.Tracer, procs)
	watches := make([]*stopwatch, procs)
	ics := make([]mpi.Interceptor, procs)
	for i := range tracers {
		tracers[i] = pilgrim.NewTracer(i, nil, pilgrim.Options{})
		watches[i] = &stopwatch{Tracer: tracers[i]}
		ics[i] = watches[i]
	}
	err := mpi.RunOpt(procs, mpi.Options{Seed: 1, Interceptors: ics}, func(p *mpi.Proc) {
		pilgrim.BindOOB(tracers[p.Rank()], p)
		body(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	_, stats := pilgrim.Finalize(tracers)
	intra, outside := stats.IntraNs, int64(0)
	for _, w := range watches {
		intra -= w.dropped
		outside += w.ns
		drops += w.drops
	}
	return float64(intra) / float64(outside), stats.TotalCalls, drops
}

// TestIntraNsAgainstStopwatch holds the sampled estimate of the
// intra-process tracing time to an external measurement of the same
// hooks, less the calls an interruption hit (stopwatch). The long runs
// test the sampling; cg at 64 ranks is 34 calls a rank of which two
// block in Comm_split's id agreement for longer than all the others
// together, the case a sample alone gets wrong by two orders of
// magnitude and the encoder's exact wait total is for. The short runs
// are logged only: below ~10^4 calls a rank's unrepresented tail and
// the stopwatch's own scatter are both tens of percent.
func TestIntraNsAgainstStopwatch(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("wall-clock comparison: skipped under -short and -race")
	}
	for _, c := range []struct {
		name         string
		procs, iters int
		lo, hi       float64 // 0, 0: log only
	}{
		{"stencil2d", 16, 2000, 0.8, 1.25},
		{"stencil3d", 64, 100, 0.8, 1.25},
		{"cellular", 16, 400, 0.8, 1.25},
		{"milc", 16, 50, 0.8, 1.25},
		{"cg", 64, 10, 0.9, 1.1},
		{"is", 16, 20, 0, 0},
		{"mg", 16, 20, 0, 0},
		{"sedov", 16, 20, 0, 0},
	} {
		ratio, calls, drops := intraRatio(t, c.name, c.procs, c.iters)
		if c.lo != 0 && (ratio < c.lo || ratio > c.hi) {
			t.Errorf("%s %d x %d: IntraNs / stopwatch = %.3f, want within [%.2f, %.2f]",
				c.name, c.procs, c.iters, ratio, c.lo, c.hi)
		}
		t.Logf("%-9s %4d x %-4d %7d calls, %3d interrupted: IntraNs / stopwatch = %.3f",
			c.name, c.procs, c.iters, calls, drops, ratio)
	}
}
