package collect_test

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/framelog"
	"github.com/hpcrepro/pilgrim/internal/framelog/framelogtest"
	"github.com/hpcrepro/pilgrim/internal/tracetest"
)

// startOnFS is startServer with run journals on fsys.
func startOnFS(t *testing.T, cfg collect.Config, fsys framelog.FS) *collect.Server {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	srv, err := collect.StartOnFS(cfg, fsys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestJournalShortWriteRecovers injects a short write at each append
// of a run's journal in turn, then kills the daemon. The faulted
// journal breaks and the run keeps collecting in memory; the restarted
// daemon replays the intact pairs before the fault, cuts the torn half
// pair, and, once the producers re-send, finalizes the uninterrupted
// bytes.
func TestJournalShortWriteRecovers(t *testing.T) {
	const n = 4
	snaps := traceWorkload(t, n)
	local, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
	want := tracetest.Bytes(t, local)
	for k := 1; k < n; k++ {
		t.Run(fmt.Sprintf("append%d", k), func(t *testing.T) {
			dir := t.TempDir()
			ffs := &framelogtest.FaultFS{FS: framelog.OS, Op: framelogtest.WriteFrames, N: k}
			srv := startOnFS(t, collect.Config{OutDir: dir, JournalSync: collect.SyncAlways}, ffs)
			c := client(srv, "short", n)
			for i := 0; i < n-1; i++ {
				if err := c.SendSnapshot(snaps[i]); err != nil {
					t.Fatalf("send rank %d: %v", i, err)
				}
			}
			if got := srv.Metrics().JournalErrors.Load(); got != 1 || ffs.Hits() != k {
				t.Fatalf("%d journal errors after %d appends, want 1 after %d", got, ffs.Hits(), k)
			}
			srv.CrashStop()

			srv2 := startServer(t, collect.Config{OutDir: dir, JournalSync: collect.SyncAlways})
			rec, ok := srv2.Recovery("short")
			if !ok || !rec.TornTail || rec.ReplayedFrames != k-1 || rec.TruncatedBytes == 0 {
				t.Fatalf("recovery after a short append %d: %+v", k, rec)
			}
			c2 := client(srv2, "short", n)
			for i, s := range snaps {
				if err := c2.SendSnapshot(s); err != nil {
					t.Fatalf("re-send rank %d: %v", i, err)
				}
			}
			got, err := c2.WaitTrace()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("trace after a short journal append differs from the uninterrupted finalize")
			}
		})
	}
}

// TestJournalManifestFaultRunsMemoryOnly: a run whose first manifest
// cannot be committed has no journal to trust, so it collects in
// memory. It still finalizes the uninterrupted bytes, the fault is
// counted once, and nothing is appended to the frames it cannot name.
func TestJournalManifestFaultRunsMemoryOnly(t *testing.T) {
	const n = 4
	snaps := traceWorkload(t, n)
	local, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
	want := tracetest.Bytes(t, local)
	for _, op := range []string{framelogtest.WriteManifest, framelogtest.Sync, framelogtest.Rename} {
		t.Run(op, func(t *testing.T) {
			ffs := &framelogtest.FaultFS{FS: framelog.OS, Op: op, N: 1}
			srv := startOnFS(t, collect.Config{OutDir: t.TempDir(), JournalSync: collect.SyncAlways}, ffs)
			got, err := client(srv, "manifest", n).Collect(snaps)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tracetest.Bytes(t, got), want) {
				t.Fatal("trace of a run without a journal differs from the local finalize")
			}
			m := srv.Metrics()
			if m.JournalErrors.Load() != 1 || m.JournalFrames.Load() != 0 {
				t.Fatalf("journal errors %d, frames %d; want 1 and 0", m.JournalErrors.Load(), m.JournalFrames.Load())
			}
		})
	}
}
