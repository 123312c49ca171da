package collect

import (
	"runtime"
	"runtime/debug"
	"time"

	"github.com/hpcrepro/pilgrim/internal/metrics"
	"github.com/hpcrepro/pilgrim/internal/obs"
)

// Metrics bundles the collector daemon's instrument handles, built on
// the same registry primitives as the tracer's self-observability
// layer so one Prometheus/expvar endpoint serves both.
type Metrics struct {
	Reg *metrics.Registry

	IngestSnapshots   *metrics.Counter   // snapshots accepted into a merge
	IngestBytes       *metrics.Counter   // wire frame body bytes ingested
	DupSnapshots      *metrics.Counter   // idempotent re-sends deduplicated
	RejectedSnapshots *metrics.Counter   // snapshots refused (bad run/epoch/decode)
	MergeNs           *metrics.Histogram // finalize walk time per step (one batch of the arrived prefix)
	MergeBacklog      *metrics.Gauge     // ranks received but not yet walked
	FinalizeNs        *metrics.Histogram // per-run finalize (pack tail+serialize+write) latency
	ActiveRuns        *metrics.Gauge     // runs currently collecting
	ActiveConns       *metrics.Gauge     // open ingest connections
	FinalizedRuns     *metrics.Counter   // runs finalized with every rank reported
	SalvagedRuns      *metrics.Counter   // runs salvaged by the straggler deadline
	TraceBytesOut     *metrics.Counter   // serialized trace bytes produced

	JournalFrames         *metrics.Counter // snapshot frame pairs appended to run journals
	JournalBytes          *metrics.Counter // journal bytes appended (framing included)
	JournalFsyncs         *metrics.Counter // journal fsync calls issued
	JournalErrors         *metrics.Counter // journals marked broken by an I/O error
	JournalReplayedFrames *metrics.Counter // journaled snapshots replayed into runs at startup
	JournalTornTails      *metrics.Counter // torn/corrupt journal tails truncated during recovery
	RecoveredRuns         *metrics.Counter // runs restored from journals at startup

	AdmissionRejectedRuns  *metrics.Counter // hellos NACKed by the max-runs cap
	AdmissionRejectedSnaps *metrics.Counter // snapshots NACKed by the max-run-bytes cap
	AdmissionRejectedConns *metrics.Counter // connections NACKed by the max-conns cap

	E2eLatency       *metrics.Histogram // clock-corrected client→collector one-way latency
	JournalFsyncLag  *metrics.Histogram // age of the oldest unsynced journal byte at fsync
	RunPhase         *metrics.GaugeVec  // runs per health phase (label: phase)
	WatchSubscribers *metrics.Gauge     // live /watch SSE subscribers
	WatchEvents      *metrics.Counter   // events published on the watch stream
	WatchDropped     *metrics.Counter   // watch messages dropped to slow subscribers
}

// NewMetrics registers the collector families on reg (a fresh
// registry when nil).
func NewMetrics(reg *metrics.Registry) *Metrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Metrics{
		Reg:               reg,
		IngestSnapshots:   reg.Counter("pilgrim_collect_ingest_snapshots_total", "rank snapshots accepted into a run merge"),
		IngestBytes:       reg.Counter("pilgrim_collect_ingest_bytes_total", "wire frame body bytes ingested"),
		DupSnapshots:      reg.Counter("pilgrim_collect_duplicate_snapshots_total", "idempotent snapshot re-sends deduplicated by (run, rank, epoch)"),
		RejectedSnapshots: reg.Counter("pilgrim_collect_rejected_snapshots_total", "snapshots refused (unknown run, epoch mismatch, decode error)"),
		MergeNs:           reg.Histogram("pilgrim_collect_merge_ns", "finalize walk time per step: one batch of a run's arrived prefix folded, relabeled and deduplicated, journal read-back included (ns)"),
		MergeBacklog:      reg.Gauge("pilgrim_collect_merge_backlog", "ranks received but not yet walked (all runs)"),
		FinalizeNs:        reg.Histogram("pilgrim_collect_finalize_ns", "per-run finalize latency once the last rank is walked: the pack's tail, serialize, write (ns)"),
		ActiveRuns:        reg.Gauge("pilgrim_collect_active_runs", "runs currently collecting snapshots"),
		ActiveConns:       reg.Gauge("pilgrim_collect_active_conns", "open ingest connections"),
		FinalizedRuns:     reg.Counter("pilgrim_collect_finalized_runs_total", "runs finalized with every rank reported"),
		SalvagedRuns:      reg.Counter("pilgrim_collect_salvaged_runs_total", "runs salvaged at the straggler deadline with ranks missing"),
		TraceBytesOut:     reg.Counter("pilgrim_collect_trace_bytes_total", "serialized trace bytes produced by finalized runs"),

		JournalFrames:         reg.Counter("pilgrim_collect_journal_frames_total", "snapshot frame pairs appended to run journals"),
		JournalBytes:          reg.Counter("pilgrim_collect_journal_bytes_total", "run journal bytes appended, wire framing included"),
		JournalFsyncs:         reg.Counter("pilgrim_collect_journal_fsyncs_total", "journal fsync calls issued (always: per group commit; batch: per interval)"),
		JournalErrors:         reg.Counter("pilgrim_collect_journal_errors_total", "journals marked broken by an I/O error (run continues memory-only)"),
		JournalReplayedFrames: reg.Counter("pilgrim_collect_journal_replayed_frames_total", "journaled snapshots replayed through ingest during startup recovery"),
		JournalTornTails:      reg.Counter("pilgrim_collect_journal_torn_tails_total", "torn or corrupt journal tails truncated during recovery"),
		RecoveredRuns:         reg.Counter("pilgrim_collect_recovered_runs_total", "runs restored from journals at startup (replayed or re-registered)"),

		AdmissionRejectedRuns:  reg.Counter("pilgrim_collect_admission_rejected_runs_total", "run creations refused by the max-runs cap"),
		AdmissionRejectedSnaps: reg.Counter("pilgrim_collect_admission_rejected_snapshots_total", "snapshots refused by the max-run-bytes cap"),
		AdmissionRejectedConns: reg.Counter("pilgrim_collect_admission_rejected_conns_total", "connections refused by the max-conns cap"),

		E2eLatency:       reg.Histogram("pilgrim_collect_e2e_latency_ns", "clock-corrected client→collector one-way snapshot latency (ns)"),
		JournalFsyncLag:  reg.Histogram("pilgrim_collect_journal_fsync_lag_ns", "age of the oldest unsynced journal byte when its fsync lands (ns)"),
		RunPhase:         reg.GaugeVec("pilgrim_collect_run_phase", "runs currently in each health phase", "phase"),
		WatchSubscribers: reg.Gauge("pilgrim_collect_watch_subscribers", "live /watch SSE subscribers"),
		WatchEvents:      reg.Counter("pilgrim_collect_watch_events_total", "lifecycle and health events published on the watch stream"),
		WatchDropped:     reg.Counter("pilgrim_collect_watch_dropped_total", "watch messages dropped to slow or stalled subscribers (drop-oldest)"),
	}
}

// buildVersion resolves the module version baked into the binary;
// source builds (go run, go test) report "devel".
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

// registerProcess adds the process-level series to the registry: build
// identity (the Prometheus build-info idiom), uptime, goroutine count,
// and — when the flight recorder is on — its drop counter. Scrape-time
// functions throughout; nothing is sampled on the hot path.
func (m *Metrics) registerProcess(start time.Time, sink *obs.Sink) {
	m.Reg.Info("pilgrim_build_info", "build metadata of the running collector",
		"version", buildVersion(), "goversion", runtime.Version())
	m.Reg.GaugeFunc("pilgrim_collect_uptime_seconds", "seconds since the collector started",
		func() float64 { return time.Since(start).Seconds() })
	m.Reg.GaugeFunc("pilgrim_collect_goroutines", "goroutines in the collector process",
		func() float64 { return float64(runtime.NumGoroutine()) })
	if sink != nil {
		m.Reg.CounterFunc("pilgrim_obs_dropped_total", "flight-recorder events overwritten before being read",
			func() int64 { return sink.Dropped() })
	}
}
