package collect_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/tracetest"
	"github.com/hpcrepro/pilgrim/internal/wire"
)

// journalFrames returns the run's on-disk journal frame file path.
func journalFrames(dir, runID string) string {
	return filepath.Join(dir, "journal", runID, "frames.jnl")
}

// TestCrashRecoveryMidRun is the tentpole claim at its first crash
// point: SIGKILL the daemon after half the ranks reported, restart it
// over the same OutDir, let the remaining ranks send, and the
// finalized trace must be byte-identical to an uninterrupted local
// finalize of the same snapshots.
func TestCrashRecoveryMidRun(t *testing.T) {
	const n = 8
	snaps := traceWorkload(t, n)
	local, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
	want := tracetest.Bytes(t, local)

	dir := t.TempDir()
	srv := startServer(t, collect.Config{OutDir: dir, JournalSync: collect.SyncAlways})
	c := client(srv, "crashmid", n)
	for i := 0; i < n/2; i++ {
		if err := c.SendSnapshot(snaps[i]); err != nil {
			t.Fatalf("send rank %d: %v", i, err)
		}
	}
	srv.CrashStop()

	srv2 := startServer(t, collect.Config{OutDir: dir, JournalSync: collect.SyncAlways})
	rec, ok := srv2.Recovery("crashmid")
	if !ok || !rec.Recovered {
		t.Fatalf("run not recovered: ok=%v rec=%+v", ok, rec)
	}
	if rec.ReplayedFrames != n/2 {
		t.Fatalf("replayed %d frames, want %d", rec.ReplayedFrames, n/2)
	}
	if rec.TornTail {
		t.Fatalf("clean SyncAlways journal reported a torn tail: %+v", rec)
	}
	if got := srv2.Metrics().JournalReplayedFrames.Load(); got != int64(n/2) {
		t.Fatalf("replay metric %d, want %d", got, n/2)
	}
	st, ok := srv2.Run("crashmid")
	if !ok || st.State != "collecting" || st.Received != n/2 {
		t.Fatalf("recovered run status: %+v", st)
	}

	c2 := client(srv2, "crashmid", n)
	for i := n / 2; i < n; i++ {
		if err := c2.SendSnapshot(snaps[i]); err != nil {
			t.Fatalf("send rank %d after restart: %v", i, err)
		}
	}
	got, err := c2.WaitTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered trace differs from uninterrupted finalize: %d vs %d bytes", len(got), len(want))
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "crashmid.pilgrim"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Fatal("on-disk trace differs from uninterrupted finalize")
	}
	// Finalize drops the frame log (asynchronously, off the ack path);
	// only the manifest remains.
	removed := false
	for wait := time.Now().Add(2 * time.Second); time.Now().Before(wait); time.Sleep(5 * time.Millisecond) {
		if _, err := os.Stat(journalFrames(dir, "crashmid")); os.IsNotExist(err) {
			removed = true
			break
		}
	}
	if !removed {
		t.Fatal("frames.jnl still present after finalize")
	}
}

// TestCrashRecoveryAfterLastFrame is the second crash point: the
// daemon dies after the run finalized. The restarted daemon must
// re-register the run from its journal manifest and keep serving the
// identical trace to late waiters and duplicate re-sends.
func TestCrashRecoveryAfterLastFrame(t *testing.T) {
	const n = 4
	snaps := traceWorkload(t, n)
	local, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
	want := tracetest.Bytes(t, local)

	dir := t.TempDir()
	srv := startServer(t, collect.Config{OutDir: dir, JournalSync: collect.SyncAlways})
	c := client(srv, "crashdone", n)
	for _, s := range snaps {
		if err := c.SendSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.WaitTrace(); err != nil {
		t.Fatal(err)
	}
	srv.CrashStop()

	srv2 := startServer(t, collect.Config{OutDir: dir, JournalSync: collect.SyncAlways})
	rec, ok := srv2.Recovery("crashdone")
	if !ok || !rec.Recovered || !rec.FromManifest {
		t.Fatalf("finalized run not recovered from manifest: ok=%v rec=%+v", ok, rec)
	}
	c2 := client(srv2, "crashdone", n)
	// A producer whose ack was lost in the crash re-sends: idempotent.
	if err := c2.SendSnapshot(snaps[0]); err != nil {
		t.Fatalf("re-send into recovered finalized run: %v", err)
	}
	got, err := c2.WaitTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("trace served after restart differs from original")
	}
}

// TestCrashRecoveryTornTail crashes mid-run and then corrupts the
// journal the way a torn write would: once with a truncated frame
// pair, once with garbage bytes. Recovery must truncate at the last
// intact pair — never fail the run — and the completed run must still
// match the uninterrupted finalize byte for byte.
func TestCrashRecoveryTornTail(t *testing.T) {
	const n = 4
	snaps := traceWorkload(t, n)
	local, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
	want := tracetest.Bytes(t, local)

	// A valid frame pair to tear: rank n-1's hello+snapshot.
	var pair bytes.Buffer
	hello := &wire.Hello{Version: wire.Version, RunID: "torn", WorldSize: n, Rank: n - 1}
	wire.WriteFrame(&pair, wire.TypeHello, hello.Encode())
	wire.WriteFrame(&pair, wire.TypeSnapshot, wire.EncodeSnapshot(snaps[n-1]))

	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"truncated-pair", pair.Bytes()[:pair.Len()/2]},
		{"garbage", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			srv := startServer(t, collect.Config{OutDir: dir, JournalSync: collect.SyncAlways})
			c := client(srv, "torn", n)
			for i := 0; i < n-1; i++ {
				if err := c.SendSnapshot(snaps[i]); err != nil {
					t.Fatal(err)
				}
			}
			srv.CrashStop()

			fpath := journalFrames(dir, "torn")
			fi, err := os.Stat(fpath)
			if err != nil {
				t.Fatal(err)
			}
			intact := fi.Size()
			f, err := os.OpenFile(fpath, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			srv2 := startServer(t, collect.Config{OutDir: dir, JournalSync: collect.SyncAlways})
			rec, ok := srv2.Recovery("torn")
			if !ok || !rec.Recovered {
				t.Fatalf("run not recovered: %+v", rec)
			}
			if !rec.TornTail || rec.ReplayedFrames != n-1 {
				t.Fatalf("torn tail not detected: %+v", rec)
			}
			if srv2.Metrics().JournalTornTails.Load() == 0 {
				t.Fatal("torn-tail metric not incremented")
			}
			if fi, err := os.Stat(fpath); err != nil || fi.Size() != intact {
				t.Fatalf("journal not truncated to last intact pair: size %d want %d (%v)", fi.Size(), intact, err)
			}

			c2 := client(srv2, "torn", n)
			if err := c2.SendSnapshot(snaps[n-1]); err != nil {
				t.Fatal(err)
			}
			got, err := c2.WaitTrace()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("trace after torn-tail recovery differs from uninterrupted finalize")
			}
		})
	}
}

// TestGracefulRestartReplaysBatchJournal covers the batch fsync mode
// across a clean shutdown: Close flushes the journal, and the next
// daemon replays the half-collected run from it.
func TestGracefulRestartReplaysBatchJournal(t *testing.T) {
	const n = 4
	snaps := traceWorkload(t, n)
	local, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
	want := tracetest.Bytes(t, local)

	dir := t.TempDir()
	srv := startServer(t, collect.Config{OutDir: dir, JournalSync: collect.SyncBatch})
	c := client(srv, "graceful", n)
	for i := 0; i < n-1; i++ {
		if err := c.SendSnapshot(snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := startServer(t, collect.Config{OutDir: dir, JournalSync: collect.SyncBatch})
	rec, ok := srv2.Recovery("graceful")
	if !ok || rec.ReplayedFrames != n-1 || rec.TornTail {
		t.Fatalf("graceful restart recovery: %+v", rec)
	}
	c2 := client(srv2, "graceful", n)
	if err := c2.SendSnapshot(snaps[n-1]); err != nil {
		t.Fatal(err)
	}
	got, err := c2.WaitTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("trace after graceful restart differs from uninterrupted finalize")
	}
}

// TestRecoverySkipsForeignEpochFrames: an epoch restart truncates the
// journal, so frames from the previous epoch can never replay into
// the new run.
func TestRecoveryEpochRestartTruncatesJournal(t *testing.T) {
	const n = 2
	snaps := traceWorkload(t, n)
	dir := t.TempDir()

	srv := startServer(t, collect.Config{OutDir: dir, JournalSync: collect.SyncAlways, StragglerDeadline: 50 * time.Millisecond})
	c := client(srv, "epochs", n)
	c.Run.Epoch = 1
	// Only rank 0 reports; the deadline salvages the run.
	if err := c.SendSnapshot(snaps[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitTrace(); err != nil {
		t.Fatal(err)
	}
	// Epoch 2 restarts the run; its journal must start empty.
	c.Run.Epoch = 2
	if err := c.SendSnapshot(snaps[0]); err != nil {
		t.Fatal(err)
	}
	srv.CrashStop()

	srv2 := startServer(t, collect.Config{OutDir: dir, JournalSync: collect.SyncAlways})
	rec, ok := srv2.Recovery("epochs")
	if !ok || rec.ReplayedFrames != 1 {
		t.Fatalf("epoch-2 journal should replay exactly its own frame: %+v", rec)
	}
	st, _ := srv2.Run("epochs")
	if st.Epoch != 2 || st.State != "collecting" || st.Received != 1 {
		t.Fatalf("recovered run: %+v", st)
	}
}
