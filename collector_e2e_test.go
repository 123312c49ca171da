package pilgrim_test

import (
	"net"
	"os"
	"path/filepath"
	"testing"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/mpi"
)

// TestRunSimThroughCollector drives the full networked path: RunSim
// with Options.CollectorAddr streams every rank's snapshot to a live
// collector, the merge happens server-side, and the fetched trace is
// a complete, decodable artifact also persisted under the collector's
// out-dir.
func TestRunSimThroughCollector(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	srv := startCollector(t, collect.Config{OutDir: dir})

	body := workload(t, "stencil2d", 3, n)
	opts := pilgrim.Options{CollectorAddr: srv.Addr(), CollectorRunID: "e2e"}
	file, stats, err := pilgrim.RunSim(n, opts, mpi.Options{}, body)
	if err != nil {
		t.Fatal(err)
	}
	if file.NumRanks != n || stats.TotalCalls == 0 {
		t.Fatalf("trace: %d ranks, %d calls", file.NumRanks, stats.TotalCalls)
	}
	for r := 0; r < n; r++ {
		if _, err := pilgrim.DecodeRank(file, r); err != nil {
			t.Fatalf("decode rank %d: %v", r, err)
		}
	}
	// The remote path really ran: the collector finalized the run and
	// wrote the trace file.
	if srv.Metrics().FinalizedRuns.Load() != 1 {
		t.Fatal("collector did not finalize the run (local fallback used?)")
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "e2e.pilgrim"))
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != stats.TraceBytes {
		t.Fatalf("on-disk trace %d bytes, stats say %d", len(onDisk), stats.TraceBytes)
	}
}

// TestRunSimReusedRunID runs two different workloads under the same
// CollectorRunID: each run must finalize at the collector with its own
// trace. RunSim derives a fresh epoch per run, so the second run
// restarts the registry entry — without that, every snapshot of the
// second run would ack as a duplicate of the first and WaitTrace would
// silently hand back the first run's trace.
func TestRunSimReusedRunID(t *testing.T) {
	const n = 4
	srv := startCollector(t, collect.Config{OutDir: t.TempDir()})
	opts := pilgrim.Options{CollectorAddr: srv.Addr(), CollectorRunID: "reused"}

	small := workload(t, "stencil2d", 2, n)
	file1, _, err := pilgrim.RunSim(n, opts, mpi.Options{}, small)
	if err != nil {
		t.Fatal(err)
	}
	big := workload(t, "stencil2d", 5, n)
	file2, _, err := pilgrim.RunSim(n, opts, mpi.Options{}, big)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Metrics().FinalizedRuns.Load(); got != 2 {
		t.Fatalf("collector finalized %d runs, want 2 (second run served stale trace?)", got)
	}
	calls1, err := pilgrim.DecodeRank(file1, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls2, err := pilgrim.DecodeRank(file2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls2) <= len(calls1) {
		t.Fatalf("second trace decodes %d calls on rank 0, first %d — got the first run's trace back",
			len(calls2), len(calls1))
	}
}

// TestRunSimCollectorDown points RunSim at a dead address: the client
// exhausts its retries and RunSim falls back to the local merge, so
// the run still succeeds with a full trace.
func TestRunSimCollectorDown(t *testing.T) {
	const n = 4
	body := workload(t, "stencil2d", 2, n)
	// A listener we close immediately: the port is real but dead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	file, stats, err := pilgrim.RunSim(n, pilgrim.Options{CollectorAddr: addr}, mpi.Options{}, body)
	if err != nil {
		t.Fatal(err)
	}
	if file == nil || file.NumRanks != n || stats.TotalCalls == 0 {
		t.Fatalf("fallback trace incomplete: %+v", stats)
	}
	for r := 0; r < n; r++ {
		if _, err := pilgrim.DecodeRank(file, r); err != nil {
			t.Fatalf("decode rank %d: %v", r, err)
		}
	}
}

// TestRunSimCollectorKilledMidRun kills the collector while producers
// are mid-conversation — connections accept and then reset — and the
// run must still finish via the local fallback.
func TestRunSimCollectorKilledMidRun(t *testing.T) {
	const n = 4
	body := workload(t, "stencil2d", 2, n)
	// A "dying collector": accepts each connection, then severs it
	// before any ack — what producers observe when the daemon is killed
	// between connect and reply.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()

	file, stats, err := pilgrim.RunSim(n, pilgrim.Options{CollectorAddr: ln.Addr().String()}, mpi.Options{}, body)
	if err != nil {
		t.Fatal(err)
	}
	if file == nil || file.NumRanks != n || stats.TotalCalls == 0 {
		t.Fatalf("fallback trace incomplete: %+v", stats)
	}
}

// TestRunSimFallsBackOnAdmissionNack fills the collector's run budget
// and points RunSim at it: every rank's send is refused with a typed
// over-limit NACK — a permanent error, so clients stop after one
// attempt instead of burning their retry budget — and the run still
// completes via the local finalize, producing a full trace.
func TestRunSimFallsBackOnAdmissionNack(t *testing.T) {
	const n = 4
	srv := startCollector(t, collect.Config{MaxRuns: 1})

	// Occupy the only run slot with a half-reported run that never
	// finalizes (no straggler deadline configured).
	occ, err := traceRun(2, pilgrim.Options{}, mpi.Options{}, workload(t, "stencil2d", 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	hold := &collect.Client{
		Addr:  srv.Addr(),
		Run:   collect.RunInfo{RunID: "occupier", WorldSize: 2},
		Retry: collect.RetryPolicy{Seed: 1},
	}
	if err := hold.SendSnapshot(occ[0].Snapshot()); err != nil {
		t.Fatal(err)
	}

	body := workload(t, "stencil2d", 2, n)
	opts := pilgrim.Options{CollectorAddr: srv.Addr(), CollectorRunID: "shed"}
	file, stats, err := pilgrim.RunSim(n, opts, mpi.Options{}, body)
	if err != nil {
		t.Fatal(err)
	}
	if file == nil || file.NumRanks != n || stats.TotalCalls == 0 {
		t.Fatalf("fallback trace incomplete: %+v", stats)
	}
	for r := 0; r < n; r++ {
		if _, err := pilgrim.DecodeRank(file, r); err != nil {
			t.Fatalf("decode rank %d: %v", r, err)
		}
	}
	// The shed run never finalized server-side; the occupier is intact.
	if got := srv.Metrics().FinalizedRuns.Load(); got != 0 {
		t.Fatalf("collector finalized %d runs, want 0", got)
	}
	if srv.Metrics().AdmissionRejectedRuns.Load() == 0 {
		t.Fatal("no admission rejections recorded")
	}
	st, ok := srv.Run("occupier")
	if !ok || st.State != "collecting" || st.Received != 1 {
		t.Fatalf("occupier run disturbed by shed load: %+v", st)
	}
}
