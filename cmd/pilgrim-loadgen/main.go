// pilgrim-loadgen replays captured collector journals against a live
// collector — the soak/stress harness for the collector fleet. It
// reads wire-format captures (directories holding MANIFEST.json +
// frames.jnl, recorded by pilgrim-collectd -keep-journal), re-keys
// them onto synthetic run IDs for N-way amplification, paces the
// replay either closed-loop (recorded timing ÷ -speedup) or open-loop
// (-rate pairs/sec regardless of collector backpressure), and injects
// chaos: jitter, drops, duplicates, reorders, and per-rank straggler
// hold-back that drives the collector's salvage path.
//
// Usage:
//
//	pilgrim-collectd -out-dir cap -keep-journal     # record a capture
//	pilgrim-trace -workload stencil2d -procs 8 -collector localhost:7777 -run-id src
//	pilgrim-loadgen -addr localhost:7777 -journal cap -amplify 200 -speedup 10 -drop 0.01
//
// A live progress line tracks streams and acks; the final JSON run
// report (offered vs. achieved rate, ack latency percentiles, chaos
// and NACK counts) goes to stdout or -report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/hpcrepro/pilgrim/internal/framelog"
	"github.com/hpcrepro/pilgrim/internal/loadgen"
	"github.com/hpcrepro/pilgrim/internal/obs"
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:7777", "collector TCP ingest address")
		journal   = flag.String("journal", "", "captured journal to replay: a run journal dir, a journal root, or a collector out-dir")
		amplify   = flag.Int("amplify", 1, "synthetic copies of each journal to replay (re-keyed onto <run>-lg<i> when > 1)")
		prefix    = flag.String("run-prefix", "", "synthetic run ID prefix (forces re-keying even at -amplify 1)")
		speedup   = flag.Float64("speedup", 1, "divide the capture's recorded inter-frame gaps (closed-loop pacing)")
		rate      = flag.Float64("rate", 0, "open-loop pacing: offer this many pairs/sec across all streams (overrides -speedup)")
		seed      = flag.Int64("seed", 0, "chaos RNG seed for reproducible campaigns")
		jitter    = flag.Float64("jitter", 0, "scale each pacing delay by ±this fraction")
		drop      = flag.Float64("drop", 0, "probability a frame pair is silently skipped")
		dup       = flag.Float64("dup", 0, "probability a frame pair is sent twice")
		reorder   = flag.Float64("reorder", 0, "probability a frame pair swaps with its successor")
		holdRanks = flag.Int("hold-ranks", 0, "hold back each stream's highest N ranks (synthetic stragglers)")
		holdFor   = flag.Duration("hold-for", 0, "release held ranks after this delay (0 with -hold-ranks = withhold entirely, forcing salvage)")
		wait      = flag.Bool("wait", false, "block on each run's finalized trace after sending (closed-loop completion check)")
		maxConns  = flag.Int("max-conns", 64, "concurrently replaying streams")
		ioTimeout = flag.Duration("io-timeout", 30*time.Second, "per-dial/read/write deadline")
		report    = flag.String("report", "", "write the JSON run report here instead of stdout")
		quiet     = flag.Bool("q", false, "suppress the live progress line")
		verbose   = flag.Bool("v", false, "log per-stream trouble (rejects, retries, NACKs)")
	)
	flag.Parse()
	if *journal == "" {
		fmt.Fprintln(os.Stderr, "usage: pilgrim-loadgen -addr <collector> -journal <dir> [-amplify N] [-speedup X | -rate N] [chaos flags]")
		os.Exit(2)
	}
	dirs, err := framelog.Find(*journal)
	if err != nil {
		fatal(err)
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "pilgrim-loadgen: "+format+"\n", args...)
		}
	}
	r, err := loadgen.New(loadgen.Config{
		Addr:      *addr,
		Journals:  dirs,
		Amplify:   *amplify,
		RunPrefix: *prefix,
		Speedup:   *speedup,
		Rate:      *rate,
		Seed:      *seed,
		Jitter:    *jitter,
		Drop:      *drop,
		Dup:       *dup,
		Reorder:   *reorder,
		HoldRanks: *holdRanks,
		HoldFor:   *holdFor,
		Wait:      *wait,
		MaxConns:  *maxConns,
		IOTimeout: *ioTimeout,
		Obs:       obs.NewSink(obs.DefaultBuf),
		Logf:      logf,
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	streams, pairs := r.Planned()
	fmt.Fprintf(os.Stderr, "pilgrim-loadgen: %d journals → %d streams, %d pairs planned against %s\n",
		len(dirs), streams, pairs, *addr)

	progressDone := make(chan struct{})
	if !*quiet {
		go progressLoop(ctx, r, streams, pairs, progressDone)
	} else {
		close(progressDone)
	}

	rep, runErr := r.Run(ctx)
	stop()
	<-progressDone
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "pilgrim-loadgen: interrupted: %v\n", runErr)
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	out = append(out, '\n')
	if *report != "" {
		if err := os.WriteFile(*report, out, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pilgrim-loadgen: report written to %s\n", *report)
	} else {
		os.Stdout.Write(out)
	}
	fmt.Fprintf(os.Stderr,
		"pilgrim-loadgen: %d/%d pairs acked in %.1fs (offered %.0f/s, achieved %.0f/s, p99 %.2fms), nacks=%d errors=%d\n",
		rep.Acks+rep.AckDups, rep.PairsPlanned, rep.ElapsedSec,
		rep.OfferedRatePps, rep.AchievedRatePps, rep.AckLatencyP99Ms,
		rep.Nacks, rep.SendErrs)
	if runErr != nil {
		os.Exit(1)
	}
}

// progressLoop repaints one stderr status line until the campaign
// finishes (or forever if ctx never fires — the main goroutine closing
// done via ctx cancellation after Run returns ends it either way).
func progressLoop(ctx context.Context, r *loadgen.Runner, streams int, pairs int64, done chan<- struct{}) {
	defer close(done)
	m := r.Metrics()
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintln(os.Stderr)
			return
		case <-tick.C:
		}
		fmt.Fprintf(os.Stderr,
			"\r\x1b[Kstreams %d/%d  sent %d/%d  acks %d  dup %d  nack %d  err %d  chaos d/%d D/%d r/%d h/%d",
			r.DoneStreams(), streams,
			m.PairsSent.Load(), pairs,
			m.Acks.Load(), m.AckDups.Load(), m.Nacks.Load(), m.SendErrs.Load(),
			m.ChaosDropped.Load(), m.ChaosDuped.Load(), m.ChaosReordered.Load(), m.ChaosHeld.Load())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pilgrim-loadgen:", err)
	os.Exit(1)
}
