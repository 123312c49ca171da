// Package experiments regenerates every table and figure of the
// paper's evaluation (§4): trace sizes versus process count and
// iteration count for the benchmarks, NPB comparisons against the
// ScalaTrace baseline, FLASH scaling and overhead decompositions, MILC
// strong/weak scaling, and the timing-grammar sizes. Each experiment
// prints the same rows/series the paper reports; EXPERIMENTS.md holds
// the paper-vs-measured comparison.
package experiments

import (
	"fmt"
	"io"
	"time"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/scalatrace"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

// Scale selects how far the process-count sweeps go. The paper runs up
// to 16K ranks on clusters; goroutine ranks on one machine sweep lower
// by default.
type Scale int

const (
	// Quick caps sweeps at 64 ranks (CI-friendly).
	Quick Scale = iota
	// Standard caps sweeps at 256 ranks.
	Standard
	// Full caps sweeps at 1024 (4096 for the MILC weak scaling).
	Full
)

func (s Scale) cap() int {
	switch s {
	case Quick:
		return 64
	case Standard:
		return 256
	default:
		return 1024
	}
}

// capSweep filters a process-count sweep by the scale cap.
func (s Scale) capSweep(sweep []int) []int {
	var out []int
	for _, n := range sweep {
		if n <= s.cap() {
			out = append(out, n)
		}
	}
	return out
}

const runTimeout = 10 * time.Minute

// sharedCollector, when set via SetCollector, observes every traced
// run an experiment performs (pilgrim-bench -json attaches one per
// experiment and emits its final report alongside the table rows).
var sharedCollector *pilgrim.MetricsCollector

// SetCollector attaches (or, with nil, detaches) a metrics collector
// to all subsequent experiment runs. Not safe to call concurrently
// with a running experiment.
func SetCollector(c *pilgrim.MetricsCollector) { sharedCollector = c }

// Point is one measurement of one (workload, procs, iters) cell.
type Point struct {
	Workload   string
	Procs      int
	Iters      int
	Calls      int64 // MPI calls traced (all ranks)
	PilgrimB   int   // Pilgrim trace bytes
	ScalaB     int   // ScalaTrace-model trace bytes
	UniqueCFGs int
	GlobalCST  int

	// wall-clock times (Figure 7/8)
	BaseNs    int64 // run without tracing
	PilgrimNs int64 // run with Pilgrim attached
	ScalaNs   int64 // run with the baseline attached

	// Pilgrim overhead decomposition (Figure 8)
	IntraNs    int64
	CSTMergeNs int64
	CFGMergeNs int64

	// lossy-timing grammar sizes (Figure 10)
	DurB int
	IntB int
}

// RunPilgrim traces the workload with Pilgrim and fills the size
// columns.
func RunPilgrim(name string, procs, iters int, opts pilgrim.Options) (Point, error) {
	return RunPilgrimSim(name, procs, iters, opts, mpi.Options{Timeout: runTimeout})
}

// RunPilgrimSim is RunPilgrim with explicit simulator options.
func RunPilgrimSim(name string, procs, iters int, opts pilgrim.Options, simOpts mpi.Options) (Point, error) {
	body, err := workloads.Get(name, iters, procs)
	if err != nil {
		return Point{}, err
	}
	if simOpts.Timeout == 0 {
		simOpts.Timeout = runTimeout
	}
	if opts.Collector == nil {
		opts.Collector = sharedCollector
	}
	t0 := time.Now()
	file, stats, err := pilgrim.RunSim(procs, opts, simOpts, body)
	if err != nil {
		return Point{}, fmt.Errorf("%s/%d: %w", name, procs, err)
	}
	pt := Point{
		Workload: name, Procs: procs, Iters: iters,
		Calls: stats.TotalCalls, PilgrimB: stats.TraceBytes,
		UniqueCFGs: stats.UniqueCFGs, GlobalCST: stats.GlobalCST,
		PilgrimNs:  time.Since(t0).Nanoseconds(),
		IntraNs:    stats.IntraNs,
		CSTMergeNs: stats.CSTMergeNs,
		CFGMergeNs: stats.CFGMergeNs,
	}
	if opts.TimingMode == pilgrim.TimingLossy {
		_, _, pt.DurB, pt.IntB = file.SectionSizes()
	}
	return pt, nil
}

// RunScala traces the workload with the ScalaTrace model.
func RunScala(name string, procs, iters int) (int, int64, error) {
	return RunScalaSim(name, procs, iters, mpi.Options{Timeout: runTimeout})
}

// RunScalaSim is RunScala with explicit simulator options.
func RunScalaSim(name string, procs, iters int, simOpts mpi.Options) (int, int64, error) {
	body, err := workloads.Get(name, iters, procs)
	if err != nil {
		return 0, 0, err
	}
	if simOpts.Timeout == 0 {
		simOpts.Timeout = runTimeout
	}
	tracers := make([]*scalatrace.Tracer, procs)
	ics := make([]mpi.Interceptor, procs)
	for i := range tracers {
		tracers[i] = scalatrace.NewTracer(i)
		ics[i] = tracers[i]
	}
	simOpts.Interceptors = ics
	t0 := time.Now()
	err = mpi.RunOpt(procs, simOpts, body)
	if err != nil {
		return 0, 0, fmt.Errorf("%s/%d (scalatrace): %w", name, procs, err)
	}
	st := scalatrace.Finalize(tracers)
	return st.TraceBytes, time.Since(t0).Nanoseconds(), nil
}

// RunBaseSim runs the workload with no tracer attached under simOpts
// and returns the wall time.
func RunBaseSim(name string, procs, iters int, simOpts mpi.Options) (int64, error) {
	body, err := workloads.Get(name, iters, procs)
	if err != nil {
		return 0, err
	}
	if simOpts.Timeout == 0 {
		simOpts.Timeout = runTimeout
	}
	t0 := time.Now()
	if err := mpi.RunOpt(procs, simOpts, body); err != nil {
		return 0, fmt.Errorf("%s/%d (untraced): %w", name, procs, err)
	}
	return time.Since(t0).Nanoseconds(), nil
}

// RunBoth measures Pilgrim and the baseline for one cell.
func RunBoth(name string, procs, iters int) (Point, error) {
	pt, err := RunPilgrim(name, procs, iters, pilgrim.Options{})
	if err != nil {
		return pt, err
	}
	sb, sns, err := RunScala(name, procs, iters)
	if err != nil {
		return pt, err
	}
	pt.ScalaB = sb
	pt.ScalaNs = sns
	return pt, nil
}

// kb formats bytes as KB with one decimal.
func kb(b int) string { return fmt.Sprintf("%.1f", float64(b)/1024) }

func ms(ns int64) string { return fmt.Sprintf("%.1f", float64(ns)/1e6) }

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
