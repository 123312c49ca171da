package collect_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/trace"
)

// Tests for the bounded-memory ingest path: payload spilling to the
// run journal under MaxResidentSnapshots, the walk that reads them
// back when it reaches their ranks, and ingest under a flood of
// concurrent producers (slow acks, never drops).

// TestSpilledPayloadsMatchLocalFinalize caps resident snapshots far
// below the world size: payloads beyond the cap are stripped to
// journal refs on arrival and read back by the walk, and the trace
// must still be byte-identical to the in-memory local finalize.
func TestSpilledPayloadsMatchLocalFinalize(t *testing.T) {
	const n = 16
	snaps := traceWorkload(t, n)
	local, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
	want := serialize(t, local)

	for _, limit := range []int{1, 3} {
		srv := startServer(t, collect.Config{OutDir: t.TempDir(), MaxResidentSnapshots: limit})
		c := client(srv, "spilled", n)
		remote, err := c.Collect(snaps)
		if err != nil {
			t.Fatalf("limit=%d: %v", limit, err)
		}
		if got := serialize(t, remote); !bytes.Equal(got, want) {
			t.Fatalf("limit=%d: spilled-finalize trace differs from local (%d vs %d bytes)",
				limit, len(got), len(want))
		}
	}
}

// TestResidentSnapshotsBounded checks the health view mid-run: with a
// resident cap of 2 and rank 0 held back, so that the walk cannot
// start, an incomplete run holding 5 accepted snapshots reports all 5
// as backlog and exactly 2 resident, and the admin health endpoint
// carries both fields.
func TestResidentSnapshotsBounded(t *testing.T) {
	const n, limit = 6, 2
	snaps := traceWorkload(t, n)
	srv := startServer(t, collect.Config{OutDir: t.TempDir(), MaxResidentSnapshots: limit})
	admin := httptest.NewServer(collect.AdminHandler(srv))
	defer admin.Close()

	c := client(srv, "resident", n)
	for _, s := range snaps[1:] {
		if err := c.SendSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	h, ok := srv.Health("resident")
	if !ok {
		t.Fatal("no health for live run")
	}
	if h.RanksSeen != n-1 {
		t.Fatalf("ranks seen %d, want %d", h.RanksSeen, n-1)
	}
	if h.ResidentSnapshots != limit {
		t.Fatalf("resident snapshots %d, want %d (cap)", h.ResidentSnapshots, limit)
	}
	if h.MergeBacklog != n-1 {
		t.Fatalf("merge backlog %d, want %d (nothing walkable before rank 0)", h.MergeBacklog, n-1)
	}
	resp, err := admin.Client().Get(admin.URL + "/runs/resident/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 ||
		!strings.Contains(string(body), `"merge_backlog"`) ||
		!strings.Contains(string(body), `"resident_snapshots"`) {
		t.Fatalf("health endpoint: %d %s", resp.StatusCode, body)
	}

	// Rank 0 lets the walk through the whole run, spilled payloads
	// included, and the backlog drains.
	if err := c.SendSnapshot(snaps[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitTrace(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Metrics().MergeBacklog.Load(); got != 0 {
		t.Fatalf("merge backlog gauge %v after finalize, want 0", got)
	}
}

// TestFailedWalkRecordedAsFailed: a walk that cannot read its spilled
// payloads back ends the run as failed, not finalized — in its status
// (with the walk error as reason), in the finalized-runs counter, in
// the journal manifest, and again after a crash and restart.
func TestFailedWalkRecordedAsFailed(t *testing.T) {
	const n, limit = 6, 2
	snaps := traceWorkload(t, n)
	dir := t.TempDir()
	cfg := collect.Config{OutDir: dir, JournalSync: collect.SyncAlways, MaxResidentSnapshots: limit}
	srv := startServer(t, cfg)

	// Rank 0 held back: nothing is walked and the payloads past the cap
	// live only in frames.jnl, each send acked once its entry is synced.
	c := client(srv, "lost", n)
	for _, s := range snaps[1:] {
		if err := c.SendSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(journalFrames(dir, "lost"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.SendSnapshot(snaps[0]); err != nil {
		t.Fatal(err)
	}
	if data, err := c.WaitTrace(); err != nil || len(data) != 0 {
		t.Fatalf("failed run served %d trace bytes (err %v)", len(data), err)
	}

	checkFailed := func(srv *collect.Server, when string) {
		t.Helper()
		st, ok := srv.Run("lost")
		if !ok || st.State != "failed" || !strings.HasPrefix(st.Reason, "finalize walk failed: ") {
			t.Fatalf("%s: status %+v (ok=%v), want failed with the walk error", when, st, ok)
		}
		if h, _ := srv.Health("lost"); h.Phase != "failed" || h.Reason != st.Reason {
			t.Fatalf("%s: health %+v disagrees with status %+v", when, h, st)
		}
		if got := srv.Metrics().FinalizedRuns.Load(); got != 0 {
			t.Fatalf("%s: %d finalized runs counted, want 0", when, got)
		}
	}
	checkFailed(srv, "live")
	// The manifest rewrite runs on the journal's queue, off the walk.
	var man struct{ State, Reason string }
	for wait := time.Now().Add(2 * time.Second); man.State != "failed" && time.Now().Before(wait); time.Sleep(5 * time.Millisecond) {
		if data, err := os.ReadFile(filepath.Join(dir, "journal", "lost", "MANIFEST.json")); err == nil {
			json.Unmarshal(data, &man)
		}
	}
	if man.State != "failed" || !strings.HasPrefix(man.Reason, "finalize walk failed: ") {
		t.Fatalf("manifest state %q reason %q, want failed with the walk error", man.State, man.Reason)
	}

	srv.CrashStop()
	checkFailed(startServer(t, cfg), "after restart")
}

// TestBackpressureNeverDrops floods the collector from many concurrent
// producers, one connection each, in whatever order the scheduler
// lands them: the walk may slow acks, but every send must succeed and
// every snapshot must be walked exactly once.
func TestBackpressureNeverDrops(t *testing.T) {
	const n = 48
	snaps := traceWorkload(t, n)
	local, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
	want := serialize(t, local)

	srv := startServer(t, collect.Config{})
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = client(srv, "flood", n).SendSnapshot(snaps[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d send failed under backpressure: %v", i, err)
		}
	}
	got, err := client(srv, "flood", n).WaitTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("flooded trace differs from local finalize")
	}
	if merged := srv.Metrics().IngestSnapshots.Load(); merged != n {
		t.Fatalf("merged %d snapshots, want %d", merged, n)
	}
}

// TestStragglerSalvageWithSpill exercises the streamed finalize on the
// salvage path: spilled payloads plus a missing rank must still
// produce a decodable salvage trace naming the straggler.
func TestStragglerSalvageWithSpill(t *testing.T) {
	const n = 5
	snaps := traceWorkload(t, n)
	srv := startServer(t, collect.Config{
		OutDir:               t.TempDir(),
		MaxResidentSnapshots: 1,
		StragglerDeadline:    300 * time.Millisecond,
	})
	c := client(srv, "spillstraggler", n)
	for _, s := range snaps {
		if s.Rank == 3 {
			continue
		}
		if err := c.SendSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	data, err := c.WaitTrace()
	if err != nil {
		t.Fatal(err)
	}
	f, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if f.Salvage == nil || len(f.Salvage.FailedRanks) != 1 || f.Salvage.FailedRanks[0] != 3 {
		t.Fatalf("salvage info = %+v, want failed rank 3", f.Salvage)
	}
	for r := 0; r < n; r++ {
		calls, err := core.DecodeRank(f, r)
		if err != nil {
			t.Fatalf("decode rank %d: %v", r, err)
		}
		if r != 3 && int64(len(calls)) != snaps[r].Calls {
			t.Fatalf("rank %d decoded %d calls, want %d", r, len(calls), snaps[r].Calls)
		}
	}
}

// TestCrashRecoveryWithSpill restarts a resident-capped daemon mid-run,
// with the upper half of the ranks in and so nothing walked: replay
// re-spills beyond the cap, the lower half lets the walk read the
// spilled ranks back, and the trace is byte-identical to an
// uninterrupted in-memory finalize.
func TestCrashRecoveryWithSpill(t *testing.T) {
	const n = 8
	snaps := traceWorkload(t, n)
	local, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
	want := serialize(t, local)

	dir := t.TempDir()
	cfg := collect.Config{OutDir: dir, JournalSync: collect.SyncAlways, MaxResidentSnapshots: 2}
	srv := startServer(t, cfg)
	c := client(srv, "spillcrash", n)
	for i := n / 2; i < n; i++ {
		if err := c.SendSnapshot(snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	srv.CrashStop()

	srv2 := startServer(t, cfg)
	if rec, ok := srv2.Recovery("spillcrash"); !ok || !rec.Recovered || rec.ReplayedFrames != n/2 {
		t.Fatalf("recovery = %+v ok=%v", rec, ok)
	}
	if h, ok := srv2.Health("spillcrash"); !ok || h.ResidentSnapshots != 2 {
		t.Fatalf("post-replay resident snapshots = %+v (ok=%v), want 2", h, ok)
	}
	c2 := client(srv2, "spillcrash", n)
	for i := 0; i < n/2; i++ {
		if err := c2.SendSnapshot(snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c2.WaitTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered spilled trace differs from uninterrupted finalize: %d vs %d bytes",
			len(got), len(want))
	}
}
