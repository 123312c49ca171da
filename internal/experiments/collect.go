package experiments

import (
	"fmt"
	"io"
	"os"
	"time"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/obs"
	"github.com/hpcrepro/pilgrim/internal/wire"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

// CollectPoint measures the networked collection path at one rank
// count: how many bytes cross the wire per rank (snapshot encoding)
// versus the raw uncompressed trace and the final merged trace, and
// how fast an in-process collector ingests and finalizes the run.
type CollectPoint struct {
	Procs int   `json:"procs"`
	Calls int64 `json:"calls"`

	WireB  int   `json:"wire_bytes"`  // encoded snapshots, all ranks
	TraceB int   `json:"trace_bytes"` // finalized trace
	RawB   int64 `json:"raw_bytes"`   // uncompressed per-call estimate

	EncodeNs  int64 `json:"encode_ns"`         // wire-encode all snapshots
	IngestNs  int64 `json:"ingest_ns"`         // stream + merge + finalize + fetch
	JournalNs int64 `json:"journal_ingest_ns"` // same, with -journal-sync=off journaling
	ObsNs     int64 `json:"obs_ingest_ns"`     // same, with flight-recorder spans on

	SnapsPerSec float64 `json:"snaps_per_sec"`
	MBPerSec    float64 `json:"mb_per_sec"`
	// JournalPct is the journaled-ingest overhead relative to the plain
	// ingest, in percent (positive = journaling slower). The durability
	// budget: -journal-sync=off should stay within single digits.
	JournalPct float64 `json:"journal_overhead_pct"`
	// ObsPct is the span-tracing overhead relative to the plain ingest,
	// in percent. The observability budget: under 5%.
	ObsPct float64 `json:"obs_overhead_pct"`
	// E2eP95Ns is the clock-corrected client→collector one-way snapshot
	// latency p95, read from the obs-enabled run's collector (0 when no
	// echo round trip completed within the polling window).
	E2eP95Ns int64 `json:"e2e_latency_p95_ns"`
}

// CollectResult is the "collect" experiment: the wire-format and
// ingest-throughput profile of the collector subsystem across a rank
// sweep (BENCH_collect.json).
type CollectResult struct {
	Workload string         `json:"workload"`
	Iters    int            `json:"iters"`
	Points   []CollectPoint `json:"points"`
}

// RunCollect sweeps rank counts, tracing the stencil workload once per
// cell and then pushing its snapshots through a loopback collector.
func RunCollect(scale Scale) (*CollectResult, error) {
	res := &CollectResult{Workload: "stencil2d", Iters: 10}
	for _, procs := range scale.capSweep([]int{8, 16, 32, 64, 128, 256, 512, 1024}) {
		pt, err := collectPoint(res.Workload, procs, res.Iters)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func collectPoint(name string, procs, iters int) (CollectPoint, error) {
	body, err := workloads.Get(name, iters, procs)
	if err != nil {
		return CollectPoint{}, err
	}
	tracers := make([]*core.Tracer, procs)
	ics := make([]mpi.Interceptor, procs)
	for i := range tracers {
		tracers[i] = core.NewTracer(i, nil, core.Options{})
		ics[i] = tracers[i]
	}
	err = mpi.RunOpt(procs, mpi.Options{Interceptors: ics, Timeout: runTimeout}, func(p *mpi.Proc) {
		core.BindOOB(tracers[p.Rank()], p)
		body(p)
	})
	if err != nil {
		return CollectPoint{}, fmt.Errorf("%s/%d: %w", name, procs, err)
	}
	snaps := make([]*core.Snapshot, procs)
	for i, tr := range tracers {
		snaps[i] = tr.Snapshot()
	}
	pt := CollectPoint{Procs: procs}
	for _, s := range snaps {
		pt.Calls += s.Calls
	}

	t0 := time.Now()
	for _, s := range snaps {
		pt.WireB += len(wire.EncodeSnapshot(s))
	}
	pt.EncodeNs = time.Since(t0).Nanoseconds()

	srv, err := collect.Start(collect.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		return CollectPoint{}, err
	}
	defer srv.Close()
	c := &collect.Client{
		Addr: srv.Addr(),
		Run:  collect.RunInfo{RunID: fmt.Sprintf("bench-%d", procs), WorldSize: procs},
	}
	defer c.Close()
	t1 := time.Now()
	file, err := c.Collect(snaps)
	if err != nil {
		return CollectPoint{}, fmt.Errorf("collect %s/%d: %w", name, procs, err)
	}
	pt.IngestNs = time.Since(t1).Nanoseconds()
	pt.TraceB = file.SizeBytes()
	pt.RawB = file.UncompressedEstimate()
	sec := float64(pt.IngestNs) / 1e9
	if sec > 0 {
		pt.SnapsPerSec = float64(procs) / sec
		pt.MBPerSec = float64(pt.WireB) / 1e6 / sec
	}

	// The same run against a journaling collector (-journal-sync=off):
	// the delta is the pure journaling overhead — frame copies and
	// queued appends, no fsyncs.
	jdir, err := os.MkdirTemp("", "pilgrim-bench-journal-")
	if err != nil {
		return CollectPoint{}, err
	}
	defer os.RemoveAll(jdir)
	jsrv, err := collect.Start(collect.Config{Listen: "127.0.0.1:0", OutDir: jdir, JournalSync: collect.SyncOff})
	if err != nil {
		return CollectPoint{}, err
	}
	defer jsrv.Close()
	jc := &collect.Client{
		Addr: jsrv.Addr(),
		Run:  collect.RunInfo{RunID: fmt.Sprintf("bench-j-%d", procs), WorldSize: procs},
	}
	defer jc.Close()
	t2 := time.Now()
	if _, err := jc.Collect(snaps); err != nil {
		return CollectPoint{}, fmt.Errorf("journaled collect %s/%d: %w", name, procs, err)
	}
	pt.JournalNs = time.Since(t2).Nanoseconds()
	if pt.IngestNs > 0 {
		pt.JournalPct = (float64(pt.JournalNs)/float64(pt.IngestNs) - 1) * 100
	}

	// And once more with the flight recorder on both ends: the delta is
	// the pure span-tracing overhead — one ring write per instrumented
	// site, no journaling in the way.
	osrv, err := collect.Start(collect.Config{Listen: "127.0.0.1:0", Obs: obs.NewSink(0)})
	if err != nil {
		return CollectPoint{}, err
	}
	defer osrv.Close()
	oc := &collect.Client{
		Addr: osrv.Addr(),
		Run:  collect.RunInfo{RunID: fmt.Sprintf("bench-o-%d", procs), WorldSize: procs},
		Obs:  obs.NewSink(0),
	}
	defer oc.Close()
	t3 := time.Now()
	if _, err := oc.Collect(snaps); err != nil {
		return CollectPoint{}, fmt.Errorf("obs collect %s/%d: %w", name, procs, err)
	}
	pt.ObsNs = time.Since(t3).Nanoseconds()
	if pt.IngestNs > 0 {
		pt.ObsPct = (float64(pt.ObsNs)/float64(pt.IngestNs) - 1) * 100
	}
	// The last clock echo, which feeds the e2e histogram, is flushed as
	// the client releases its connections, so give it a moment to land.
	for i := 0; i < 20; i++ {
		if osrv.Metrics().E2eLatency.Snapshot().Count > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	pt.E2eP95Ns = int64(osrv.Metrics().E2eLatency.Snapshot().Quantile(0.95))
	return pt, nil
}

// Print renders the sweep as the evaluation table.
func (r *CollectResult) Print(w io.Writer) {
	header(w, "collect: wire format and ingest throughput (stencil2d)")
	fmt.Fprintf(w, "%6s %10s %10s %10s %10s %9s %10s %9s %9s %9s\n",
		"procs", "calls", "raw KB", "wire KB", "trace KB", "ratio", "snaps/s", "MB/s", "jrnl +%", "obs +%")
	for _, p := range r.Points {
		ratio := "-"
		if p.TraceB > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(p.WireB)/float64(p.TraceB))
		}
		fmt.Fprintf(w, "%6d %10d %10s %10s %10s %9s %10.0f %9.1f %9.1f %9.1f\n",
			p.Procs, p.Calls, kb(int(p.RawB)), kb(p.WireB), kb(p.TraceB),
			ratio, p.SnapsPerSec, p.MBPerSec, p.JournalPct, p.ObsPct)
	}
}
