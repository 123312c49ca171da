// pilgrim-collectd is the networked trace collector daemon: it
// ingests per-rank tracer snapshots over TCP, runs the inter-process
// finalize walk server-side as ranks report, and writes each run's
// finalized trace — byte-identical to an in-process finalize — under
// -out-dir.
// An HTTP admin API lists runs, reports per-run status, serves
// finalized traces, and exposes the daemon's Prometheus metrics.
//
// The daemon is crash-recoverable: every accepted snapshot is
// journaled under <out-dir>/journal/<run>/ (fsync policy set by
// -journal-sync), and a restarted daemon replays in-flight runs from
// their journals before accepting connections — producers that
// reconnect and re-send are deduplicated, and the recovered trace is
// byte-identical to an uninterrupted run. Admission caps (-max-runs,
// -max-run-bytes, -max-conns) shed overload with explicit NACKs that
// make producers fall back to local finalize instead of retrying.
//
// The daemon also records its own pipeline into a flight recorder
// (-obs, on by default): connection, ingest, journal, recovery, and
// finalize spans land in a fixed-size ring served at GET /debug/flight
// as Perfetto-loadable trace-event JSON, auto-dumped each second to
// <out-dir>/flight-live.json so even a SIGKILLed daemon leaves a
// loadable timeline behind.
//
// Usage:
//
//	pilgrim-collectd -listen :7777 -admin :7778 -out-dir ./traces
//	pilgrim-trace -workload stencil2d -procs 16 -collector localhost:7777 -run-id demo
//	curl localhost:7778/runs/demo
//	curl -o demo.pilgrim localhost:7778/runs/demo/trace
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/obs"
)

func main() {
	var (
		listen    = flag.String("listen", ":7777", "TCP ingest address for tracer snapshots")
		admin     = flag.String("admin", ":7778", "HTTP admin API address (runs, traces, metrics); empty disables")
		outDir    = flag.String("out-dir", ".", "directory for finalized traces (<run-id>.pilgrim)")
		deadline  = flag.Duration("deadline", 0, "straggler deadline per run: finalize as a salvage trace once this elapses with ranks missing (0 = wait forever)")
		idle      = flag.Duration("idle-timeout", 5*time.Minute, "drop ingest connections idle longer than this")
		retention = flag.Duration("retention", 10*time.Minute, "keep a finalized run's trace in memory this long before serving it from -out-dir only (negative = forever)")
		maxResid  = flag.Int("max-resident-snapshots", 0, "max not-yet-walked snapshots per run kept fully in memory; beyond it payloads spill to the run journal and the finalize walk reads them back in bounded batches (0 = unlimited, requires -out-dir journaling)")
		jsync     = flag.String("journal-sync", "batch", "run journal fsync policy: always (durable ack per snapshot), batch (fsync every 100ms), off (never fsync)")
		maxRuns   = flag.Int("max-runs", 0, "max runs collecting at once; further run creations are NACKed (0 = unlimited)")
		maxBytes  = flag.Int64("max-run-bytes", 0, "max snapshot bytes accepted per run; the snapshot exceeding it is NACKed (0 = unlimited)")
		maxConns  = flag.Int("max-conns", 0, "max concurrent ingest connections; further connections are NACKed and closed (0 = unlimited)")
		await     = flag.Duration("await-stragglers", 2*time.Second, "mark an incomplete run's health phase awaiting-stragglers after this long with no arrivals (negative disables)")
		lagWarn   = flag.Duration("journal-lag-warn", time.Second, "warn (rate-limited) when a journal fsync lands later than this after its oldest queued byte (0 disables)")
		keepJnl   = flag.Bool("keep-journal", false, "retain each run's journal frames after finalize (capture mode: the journal becomes a replayable wire recording for pilgrim-loadgen)")
		obsOn     = flag.Bool("obs", true, "enable the pipeline flight recorder (span tracing; GET /debug/flight)")
		obsBuf    = flag.Int("obs-buf", obs.DefaultBuf, "flight recorder capacity in events (overflow drops oldest)")
		obsDump   = flag.String("obs-dump", "", "directory for flight recorder crash dumps (flight-*.json); empty = -out-dir, \"off\" disables")
		verbose   = flag.Bool("v", false, "log per-run lifecycle events")
	)
	flag.Parse()

	syncMode, err := collect.ParseSyncMode(*jsync)
	if err != nil {
		fatal(err)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}

	// Flight recorder: a fixed-size ring of pipeline spans, dumped as
	// Chrome trace-event JSON. The live dump (flight-live.json, rewritten
	// every second) is what survives even a SIGKILL; SIGTERM and panics
	// additionally write a timestamped snapshot.
	var sink *obs.Sink
	dumpDir := *obsDump
	if dumpDir == "" {
		dumpDir = *outDir
	}
	if *obsOn {
		sink = obs.NewSink(*obsBuf)
		if dumpDir != "off" && dumpDir != "" {
			stop := sink.AutoDump(filepath.Join(dumpDir, "flight-live.json"), time.Second)
			defer stop()
		}
	}
	crashDump := func() {
		if sink == nil || dumpDir == "off" || dumpDir == "" {
			return
		}
		path := filepath.Join(dumpDir, "flight-"+strconv.FormatInt(time.Now().Unix(), 10)+".json")
		if err := sink.DumpFile(path); err == nil {
			log.Printf("pilgrim-collectd: flight recorder dumped to %s", path)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			crashDump()
			panic(r)
		}
	}()

	srv, err := collect.Start(collect.Config{
		Listen:               *listen,
		OutDir:               *outDir,
		StragglerDeadline:    *deadline,
		IdleTimeout:          *idle,
		Retention:            *retention,
		MaxResidentSnapshots: *maxResid,
		JournalSync:          syncMode,
		MaxRuns:              *maxRuns,
		MaxRunBytes:          *maxBytes,
		MaxConns:             *maxConns,
		AwaitStragglers:      *await,
		JournalLagWarn:       *lagWarn,
		KeepJournalFrames:    *keepJnl,
		Obs:                  sink,
		Logf:                 logf,
	})
	if err != nil {
		fatal(err)
	}
	log.Printf("pilgrim-collectd: ingest on %s, traces to %s", srv.Addr(), *outDir)

	var adminSrv *http.Server
	if *admin != "" {
		ln, err := net.Listen("tcp", *admin)
		if err != nil {
			fatal(err)
		}
		adminSrv = &http.Server{
			Handler:           collect.AdminHandler(srv),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go adminSrv.Serve(ln)
		log.Printf("pilgrim-collectd: admin API on %s", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("pilgrim-collectd: shutting down")
	crashDump()
	if adminSrv != nil {
		adminSrv.Close()
	}
	srv.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pilgrim-collectd:", err)
	os.Exit(1)
}
