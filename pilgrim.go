// Package pilgrim is a Go reproduction of "Pilgrim: Scalable and
// (near) Lossless MPI Tracing" (Wang, Balaji, Snir — SC '21): a
// tracing tool that records every MPI call with every parameter and
// compresses the stream online with a call signature table plus an
// incrementally built context-free grammar (optimized Sequitur),
// followed by inter-process compression at finalize.
//
// Since Go has no MPI bindings, the traced substrate is the bundled
// simulated MPI runtime (package mpi): goroutine ranks with full MPI
// matching semantics. The tracer attaches to it exactly as the real
// tool attaches to PMPI.
//
// Quick start:
//
//	file, stats, err := pilgrim.Run(4, pilgrim.Options{}, func(p *mpi.Proc) {
//	    p.Init()
//	    // ... MPI program ...
//	    p.Finalize()
//	})
//	fmt.Println(stats.TraceBytes, "bytes for", stats.TotalCalls, "calls")
//	calls, _ := pilgrim.DecodeRank(file, 0)
package pilgrim

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/hpcrepro/pilgrim/internal/analysis"
	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/framelog"
	"github.com/hpcrepro/pilgrim/internal/metrics"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/obs"
	"github.com/hpcrepro/pilgrim/internal/spill"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/mpi"
)

// Options configures tracing. The zero value means aggregated timing
// (mean duration per call signature) with verification off.
type Options = core.Options

// Timing modes for Options.TimingMode.
const (
	TimingAggregated = trace.TimingAggregated
	TimingLossy      = trace.TimingLossy
)

// Tracer is the per-rank interceptor; attach it to a simulated rank
// via mpi.Options.Interceptors or Proc.SetInterceptor.
type Tracer = core.Tracer

// TraceFile is a complete compressed trace (CST + unique grammars +
// rank map + optional timing grammars).
type TraceFile = trace.File

// FinalizeStats reports trace size, call counts, and where the
// compression time went.
type FinalizeStats = core.FinalizeStats

// DecodedCall is one reconstructed call from a compressed trace: a
// pointer to its signature's decoded CST entry (Func, Args,
// AvgDuration), which every call of that signature shares and which
// must not be modified, plus its wall-clock times: recovered in lossy
// timing mode, the rank's mean durations laid end to end in aggregated
// mode.
type DecodedCall = core.DecodedCall

// NewTracer builds a tracer for one rank. The OOB interface gives it
// PMPI-level collectives for communicator-id agreement; pass the
// rank's *mpi.Proc.
func NewTracer(rank int, oob mpispec.OOB, opts Options) *Tracer {
	return core.NewTracer(rank, oob, opts)
}

// Run executes body as an SPMD program on n simulated ranks with a
// tracer attached to each, then performs inter-process compression and
// returns the trace.
func Run(n int, opts Options, body func(p *mpi.Proc)) (*TraceFile, FinalizeStats, error) {
	return RunSim(n, opts, mpi.Options{}, body)
}

// RunSim is Run with explicit simulator options (seed, timeout,
// fault plan). Options that fail Options.Validate return an error
// before any rank runs, as does a CollectorRunID that cannot name a
// SpillDir subdirectory when the spill is used. When the simulation
// fails — injected crash, Abort, deadlock, panic — RunSim salvages: it
// runs the same inter-process merge over whatever every rank traced
// before the failure and returns the partial trace (tagged with
// trace.SalvageInfo) alongside the non-nil error. Callers that only
// check err keep the old behavior; callers that want the partial trace
// use the file even when err != nil.
//
// The finalize route is picked once: the collector at CollectorAddr
// for a clean run, else the spill under SpillDir, else in memory.
// SpillDir is ignored under a collector, clean run or not.
func RunSim(n int, opts Options, simOpts mpi.Options, body func(p *mpi.Proc)) (*TraceFile, FinalizeStats, error) {
	if err := opts.Validate(); err != nil {
		return nil, FinalizeStats{}, fmt.Errorf("pilgrim: %w", err)
	}
	spilled := opts.SpillDir != "" && opts.CollectorAddr == ""
	if spilled && opts.CollectorRunID != "" && !framelog.ValidRunID(opts.CollectorRunID) {
		return nil, FinalizeStats{}, fmt.Errorf("pilgrim: run id %q cannot name a spill directory", opts.CollectorRunID)
	}
	// Self-observability: an explicit Collector wins; otherwise asking
	// for an endpoint or a progress reporter implies one.
	col := opts.Collector
	if col == nil && (opts.MetricsAddr != "" || opts.ProgressEvery > 0) {
		col = metrics.NewCollector()
		opts.Collector = col
	}
	if col != nil {
		if opts.MetricsAddr != "" {
			srv, err := metrics.Serve(opts.MetricsAddr, col)
			if err != nil {
				return nil, FinalizeStats{}, err
			}
			defer srv.Close()
		}
		if opts.ProgressEvery > 0 {
			stop := col.StartReporter(os.Stderr, opts.ProgressEvery)
			defer stop()
		}
		simOpts.Metrics = col
	}
	tracers := make([]*Tracer, n)
	ics := make([]mpi.Interceptor, n)
	for i := 0; i < n; i++ {
		tracers[i] = core.NewTracer(i, nil, opts)
		ics[i] = tracers[i]
	}
	if col != nil {
		// Live-state probes feed the CST/grammar/memory gauges while the
		// run is in flight; removed before return so a reused collector
		// (pilgrim-bench sweeps) never double-counts finished runs.
		for i := 0; i < n; i++ {
			remove := col.AddTracerProbe(tracers[i].ProbeStats)
			defer remove()
		}
	}
	simOpts.Interceptors = ics
	err := mpi.RunOpt(n, simOpts, func(p *mpi.Proc) {
		// Late-bind the OOB interface: the Proc exists only now.
		core.BindOOB(tracers[p.Rank()], p)
		body(p)
	})
	var failed map[int]error // nil for a clean run
	var reason string
	if err != nil {
		failed, reason = classify(err)
	}
	switch {
	case opts.CollectorAddr != "" && err == nil:
		file, stats := collectFinalize(tracers, opts)
		if col != nil {
			stats.Metrics = col.Report()
		}
		return file, stats, nil
	case spilled:
		// Streaming, bounded-memory finalize: each batch is written to
		// the spill and walked while the next is taken, with at most
		// MaxResidentSnapshots snapshots resident, byte-identical to the
		// in-memory path.
		file, stats, ferr := spill.Finalize(tracers, failed, reason, opts)
		switch {
		case ferr == nil:
			return file, stats, err
		case err != nil:
			// The spill consumed tracer state, so there is no safe
			// in-memory fallback: the salvage trace is lost, the run
			// error still stands.
			fmt.Fprintf(os.Stderr, "pilgrim: spill salvage finalize failed: %v\n", ferr)
			return nil, stats, err
		}
		return nil, stats, fmt.Errorf("pilgrim: spill finalize: %w", ferr)
	case err != nil:
		file, stats := core.SalvageFinalize(tracers, failed, reason)
		return file, stats, err
	}
	file, stats := core.Finalize(tracers)
	return file, stats, nil
}

// classify maps a failed run's error to what a salvage is tagged with:
// the ranks that originated the failure and a one-line reason. Ranks
// that merely unwound with ErrRevoked were innocent bystanders torn
// down by the runtime, so they are not listed; only ranks that
// crashed, aborted or panicked are. The map is never nil.
func classify(err error) (failed map[int]error, reason string) {
	failed = map[int]error{}
	for r, e := range mpi.FailedRanks(err) {
		if !errors.Is(e, mpi.ErrRevoked) {
			failed[r] = e
		}
	}
	if err != nil {
		reason, _, _ = strings.Cut(err.Error(), "\n")
	}
	return failed, reason
}

// collectFinalize is the networked finalize path: every rank's
// snapshot streams to the pilgrim-collectd at Options.CollectorAddr,
// the collector walks the snapshots as they arrive, and the finalized
// trace is fetched back — byte-identical to what core.Finalize would
// have produced.
// Any failure (collector down, network partition, rejection) falls
// back to the local merge over the same snapshots, so the run always
// succeeds.
func collectFinalize(tracers []*Tracer, opts Options) (*TraceFile, FinalizeStats) {
	snaps := make([]*core.Snapshot, len(tracers))
	for i, tr := range tracers {
		snaps[i] = tr.Snapshot()
	}
	runID := opts.CollectorRunID
	if runID == "" {
		runID = "run-" + strconv.FormatInt(time.Now().UnixNano(), 36) +
			"-" + strconv.Itoa(os.Getpid())
	}
	client := &collect.Client{
		Addr: opts.CollectorAddr,
		Run: collect.RunInfo{
			RunID:     runID,
			WorldSize: len(tracers),
			// A fresh epoch per run: the collector dedupes snapshots on
			// (run, rank, epoch), so a reused CollectorRunID must restart
			// the run under a new epoch — with a stale epoch every send
			// would ack as a duplicate of the previous run and WaitTrace
			// would silently hand back the previous run's trace.
			Epoch:      uint64(time.Now().UnixNano()),
			TimingMode: opts.TimingMode,
			TimingBase: opts.TimingBase,
		},
		// The run's flight recorder covers the networked path too: one
		// dial span per sender, a send span per snapshot, backoff, NACK,
		// and wait spans land next to the finalize stages on the same
		// timeline.
		Obs: opts.ObsSink,
	}
	// The client holds its connections for the run; whichever way this
	// returns — trace collected or local fallback — none outlives it.
	defer client.Close()
	file, err := client.Collect(snaps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pilgrim: collector %s unreachable (%v); finalizing locally\n",
			opts.CollectorAddr, err)
		return core.FinalizeSnapshots(snaps, opts, nil)
	}
	var st FinalizeStats
	for _, s := range snaps {
		st.TotalCalls += s.Calls
		st.IntraNs += s.IntraNs
	}
	st.TraceBytes = file.SizeBytes()
	st.GlobalCST = file.CST.Len()
	st.UniqueCFGs = len(file.Grammars)
	st.UniqueShapes = len(file.Representatives())
	return file, st
}

// SalvageFinalize performs the failure-path inter-process merge: it
// snapshots every tracer, merges the survivors' full call streams with
// the failed ranks' partial ones, and tags the trace with which ranks
// originated the failure (ranks that merely unwound with ErrRevoked
// are not listed as failed) and why. err is the error RunOpt returned.
func SalvageFinalize(tracers []*Tracer, err error) (*TraceFile, FinalizeStats) {
	failed, reason := classify(err)
	return core.SalvageFinalize(tracers, failed, reason)
}

// VerifySalvaged checks a salvaged trace against the tracers: salvage
// info present, recorded call counts matching, and the decoded streams
// lossless up to each rank's failure point.
func VerifySalvaged(f *TraceFile, tracers []*Tracer) error {
	return core.VerifySalvaged(f, tracers)
}

// SalvageInfo tags a salvaged trace with the failure that ended the
// run; TraceFile.Salvage is non-nil exactly for salvaged traces.
type SalvageInfo = trace.SalvageInfo

// BindOOB attaches a rank's out-of-band collective interface (its
// *mpi.Proc) to a tracer built before the simulation started. RunSim
// does this automatically; callers wiring tracers manually must call
// it before any communicator-creating call is traced.
func BindOOB(t *Tracer, oob mpispec.OOB) { core.BindOOB(t, oob) }

// Finalize runs the inter-process compression over explicit tracers
// (for callers managing their own simulation).
func Finalize(tracers []*Tracer) (*TraceFile, FinalizeStats) {
	return core.Finalize(tracers)
}

// DecodeRank reconstructs one rank's call stream from a trace. Each
// CST entry is decoded once per file and shared by every call naming it.
func DecodeRank(f *TraceFile, rank int) ([]DecodedCall, error) {
	return core.DecodeRank(f, rank)
}

// VerifyLossless checks that the trace decodes to exactly the streams
// the tracers saw (Options.Verify must have been set).
func VerifyLossless(f *TraceFile, tracers []*Tracer) error {
	return core.VerifyLossless(f, tracers)
}

// Load reads a trace file from disk.
func Load(path string) (*TraceFile, error) { return trace.Load(path) }

// Analysis holds every derived view of one trace: per-rank event
// timelines, the rank×rank communication matrix, the per-function
// time profile, matched point-to-point pairs with late-sender /
// late-receiver statistics, and exporters to Chrome trace-event JSON
// (Perfetto) and CSV. See internal/analysis for the semantics.
type Analysis = analysis.Analysis

// Analyze decodes a whole trace and computes every derived view
// (communication matrix, time profile, p2p matching, late statistics).
func Analyze(f *TraceFile) (*Analysis, error) { return analysis.Analyze(f) }

// MetricsCollector is a run-scoped metrics registry plus pre-registered
// instrument handles for the tracer, the simulated runtime, and the
// trace writer. Attach one via Options.Collector to observe a run; nil
// (the default) disables all instrumentation at a single pointer check
// per call.
type MetricsCollector = metrics.Collector

// MetricsReport is the final snapshot of every instrument, returned in
// FinalizeStats.Metrics and serialized by pilgrim-trace -metrics-json
// and pilgrim-bench -json.
type MetricsReport = metrics.Report

// NewMetricsCollector builds an empty collector. One collector may
// observe several runs in sequence (counters accumulate); gauges always
// reflect the latest run.
func NewMetricsCollector() *MetricsCollector { return metrics.NewCollector() }

// MetricsServer is a live observability endpoint: Prometheus text at
// /metrics, expvar JSON at /debug/vars, and net/http/pprof under
// /debug/pprof/.
type MetricsServer = metrics.Server

// ServeMetrics starts a MetricsServer on addr (use ":0" for an
// ephemeral port; Addr() reports the bound address). RunSim starts one
// automatically when Options.MetricsAddr is set.
func ServeMetrics(addr string, c *MetricsCollector) (*MetricsServer, error) {
	return metrics.Serve(addr, c)
}

// StartProgressReporter emits a one-line summary of c every interval
// until the returned stop func is called. RunSim starts one
// automatically when Options.ProgressEvery is set.
func StartProgressReporter(w io.Writer, c *MetricsCollector, every time.Duration) (stop func()) {
	return c.StartReporter(w, every)
}

// ObsSink is the pipeline flight recorder: a fixed-size ring buffer of
// typed span/instant events covering the tracer finalize stages and
// (when Options.CollectorAddr is set) the client's networked path.
// Attach one via Options.ObsSink; nil (the default) disables recording
// at one pointer check per instrumented site. Dump it with
// ObsSink.DumpFile — the output is Chrome trace-event JSON loadable in
// Perfetto.
type ObsSink = obs.Sink

// NewObsSink builds a flight recorder holding up to bufEvents events
// (<= 0 means the 4096-event default). Overflow drops oldest.
func NewObsSink(bufEvents int) *ObsSink { return obs.NewSink(bufEvents) }

// Version is the library version.
const Version = "1.0.0"
