// pilgrim-trace runs a workload skeleton on the simulated MPI runtime
// with the Pilgrim tracer attached to every rank and writes the
// compressed trace file.
//
// Usage:
//
//	pilgrim-trace -workload stencil2d -procs 16 -iters 100 -o out.pilgrim
//	pilgrim-trace -workload stencil2d -procs 8 -crash-rank 3 -crash-at 50 -salvage -o partial.pilgrim
//	pilgrim-trace -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

func main() {
	var (
		name    = flag.String("workload", "stencil2d", "workload skeleton to run (see -list)")
		procs   = flag.Int("procs", 16, "number of simulated MPI ranks")
		iters   = flag.Int("iters", 0, "iterations (0 = workload default)")
		out     = flag.String("o", "trace.pilgrim", "output trace file")
		timing  = flag.String("timing", "aggregated", "timing mode: aggregated or lossy")
		base    = flag.Float64("timing-base", 1.2, "exponential bin base for lossy timing")
		list    = flag.Bool("list", false, "list available workloads and exit")
		verbose = flag.Bool("v", false, "print per-rank statistics")

		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics, expvar, and pprof on this address during the run (e.g. :9090)")
		metricsJSON = flag.String("metrics-json", "", "write the final metrics report as JSON to this file")
		progress    = flag.Duration("progress", 0, "print a one-line progress report at this interval (e.g. 2s)")

		collector = flag.String("collector", "", "stream rank snapshots to a pilgrim-collectd at this address instead of merging locally (falls back to local merge if unreachable)")
		runID     = flag.String("run-id", "", "run identifier at the collector (default: generated)")

		spillDir    = flag.String("spill-dir", "", "finalize a batch of ranks at a time instead of holding every rank in memory, recording each batch's snapshots under this directory (journal-format, byte-identical output; ignored with -collector)")
		maxResident = flag.Int("max-resident", 0, "max rank snapshots resident during a -spill-dir finalize: batches of half this many are snapshotted and written to the spill while the batch before is finalized (0 = two batches of a sixteenth of the ranks; negative is refused)")

		obsBuf  = flag.Int("obs-buf", 0, "-obs-dump's flight recorder capacity in events (0 = 4096 default; overflow drops oldest)")
		obsDump = flag.String("obs-dump", "", "record pipeline spans (finalize stages, collector client) into a flight recorder, written as trace-event JSON to this file after the run")

		salvage   = flag.Bool("salvage", false, "on failure, write the salvaged partial trace instead of exiting empty-handed")
		seed      = flag.Int64("seed", 0, "simulator seed (0 = default)")
		crashRank = flag.Int("crash-rank", -1, "inject: crash this rank (with -crash-at)")
		crashAt   = flag.Int64("crash-at", 0, "inject: 1-based MPI call index the crash fires at")
		dropRank  = flag.Int("drop-rank", -1, "inject: drop the next message this rank sends at/after -drop-at")
		dropAt    = flag.Int64("drop-at", 0, "inject: 1-based MPI call index arming the message drop")
	)
	flag.Parse()

	if *list {
		for _, info := range workloads.List() {
			fmt.Printf("%-14s %s\n", info.Name, info.Description)
		}
		return
	}

	body, err := workloads.Get(*name, *iters, *procs)
	if err != nil {
		fatal(err)
	}
	opts := pilgrim.Options{}
	switch *timing {
	case "aggregated":
		opts.TimingMode = pilgrim.TimingAggregated
	case "lossy":
		opts.TimingMode = pilgrim.TimingLossy
		opts.TimingBase = *base
	default:
		fatal(fmt.Errorf("unknown timing mode %q", *timing))
	}

	if *metricsAddr != "" || *metricsJSON != "" || *progress > 0 {
		opts.Collector = pilgrim.NewMetricsCollector()
	}
	if *metricsAddr != "" {
		srv, err := pilgrim.ServeMetrics(*metricsAddr, opts.Collector)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
	}
	if *progress > 0 {
		defer pilgrim.StartProgressReporter(os.Stderr, opts.Collector, *progress)()
	}
	opts.CollectorAddr = *collector
	opts.CollectorRunID = *runID
	opts.SpillDir = *spillDir
	opts.MaxResidentSnapshots = *maxResident
	if *obsDump != "" {
		opts.ObsSink = pilgrim.NewObsSink(*obsBuf)
	}

	simOpts := mpi.Options{Seed: *seed}
	var plan mpi.FaultPlan
	if *crashRank >= 0 {
		plan.Faults = append(plan.Faults, mpi.Fault{Kind: mpi.FaultCrash, Rank: *crashRank, AtCall: *crashAt})
	}
	if *dropRank >= 0 {
		plan.Faults = append(plan.Faults, mpi.Fault{Kind: mpi.FaultDropMsg, Rank: *dropRank, AtCall: *dropAt})
	}
	if len(plan.Faults) > 0 {
		simOpts.FaultPlan = &plan
	}

	file, stats, err := pilgrim.RunSim(*procs, opts, simOpts, body)
	writeObsDump(*obsDump, opts.ObsSink)
	if err != nil {
		if !*salvage || file == nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pilgrim-trace: run failed: %v\n", err)
		if err := file.Save(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("salvaged partial trace: %s (%d bytes)\n", *out, stats.TraceBytes)
		if file.Salvage != nil {
			fmt.Printf("failed ranks: %v\n", file.Salvage.FailedRanks)
			fmt.Printf("reason: %s\n", file.Salvage.Reason)
		}
		fmt.Printf("calls captured before failure: %d\n", stats.TotalCalls)
		writeMetricsJSON(*metricsJSON, stats.Metrics)
		return
	}
	if err := file.Save(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("traced %d MPI calls on %d ranks\n", stats.TotalCalls, *procs)
	fmt.Printf("trace file: %s (%d bytes, %.2f KB)\n", *out, stats.TraceBytes, float64(stats.TraceBytes)/1024)
	fmt.Printf("global CST entries: %d, unique grammars: %d\n", stats.GlobalCST, stats.UniqueCFGs)
	if stats.TotalCalls > 0 {
		fmt.Printf("compression: %.1f bytes/call\n", float64(stats.TraceBytes)/float64(stats.TotalCalls))
	}
	if *verbose {
		cstB, cfgB, durB, intB := file.SectionSizes()
		fmt.Printf("sections: CST=%dB grammars=%dB duration=%dB interval=%dB\n", cstB, cfgB, durB, intB)
		fmt.Printf("compression time: intra=%.2fms cst-merge=%.2fms cfg-merge=%.2fms\n",
			float64(stats.IntraNs)/1e6, float64(stats.CSTMergeNs)/1e6, float64(stats.CFGMergeNs)/1e6)
	}
	writeMetricsJSON(*metricsJSON, stats.Metrics)
}

// writeObsDump persists the pipeline flight recorder as Perfetto-
// loadable trace-event JSON (nil-safe: needs both a path and a sink).
func writeObsDump(path string, sink *pilgrim.ObsSink) {
	if path == "" || sink == nil {
		return
	}
	if err := sink.DumpFile(path); err != nil {
		fatal(err)
	}
	fmt.Printf("pipeline spans: %s (%d events, %d dropped)\n", path, sink.Len(), sink.Dropped())
}

// writeMetricsJSON dumps the final metrics report (nil-safe: nothing
// happens unless both a path and a report exist).
func writeMetricsJSON(path string, rep *pilgrim.MetricsReport) {
	if path == "" {
		return
	}
	if rep == nil {
		fatal(fmt.Errorf("no metrics report produced (finalize did not run?)"))
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("metrics report: %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pilgrim-trace:", err)
	os.Exit(1)
}
