package collect_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/framelog"
)

// captureJournal runs a workload through a capture-mode collector
// (KeepJournalFrames) and returns the finalized run's journal
// directory plus the snapshots that produced it.
func captureJournal(t *testing.T, runID string, world int) (jdir string, snaps []*core.Snapshot) {
	t.Helper()
	dir := t.TempDir()
	srv := startServer(t, collect.Config{OutDir: dir, KeepJournalFrames: true})
	snaps = traceWorkload(t, world)
	c := client(srv, runID, world)
	if _, err := c.Collect(snaps); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	return filepath.Join(dir, "journal", runID), snaps
}

func TestJournalCaptureAndRead(t *testing.T) {
	const world = 4
	jdir, _ := captureJournal(t, "cap", world)

	jr, err := framelog.OSDir(jdir).Open()
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	man := jr.Manifest()
	if man.RunID != "cap" || man.World != world || man.State != "finalized" {
		t.Fatalf("manifest = %+v", man)
	}
	entries := jr.ReadAll()
	if len(entries) != world {
		t.Fatalf("got %d journal entries, want %d", len(entries), world)
	}
	seen := map[int]bool{}
	for _, e := range entries {
		if e.Hello.RunID != "cap" {
			t.Fatalf("entry run id %q", e.Hello.RunID)
		}
		if e.Bytes() != int64(len(e.HelloRaw)+len(e.SnapRaw)) {
			t.Fatal("Bytes() disagrees with raw lengths")
		}
		seen[e.Hello.Rank] = true
	}
	if len(seen) != world {
		t.Fatalf("entries cover %d distinct ranks, want %d", len(seen), world)
	}
	if torn, trunc := jr.Torn(); torn || trunc != 0 {
		t.Fatalf("clean journal reported torn=%v trunc=%d", torn, trunc)
	}
}

func TestJournalReaderTornTail(t *testing.T) {
	jdir, _ := captureJournal(t, "torn", 2)
	f, err := os.OpenFile(filepath.Join(jdir, "frames.jnl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte{0x10, 0x00, 0x00, 0x00, 0x02, 0xde, 0xad}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jr, err := framelog.OSDir(jdir).Open()
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if entries := jr.ReadAll(); len(entries) != 2 {
		t.Fatalf("got %d intact entries, want 2", len(entries))
	}
	torn, trunc := jr.Torn()
	if !torn || trunc != int64(len(garbage)) {
		t.Fatalf("torn=%v trunc=%d, want true %d", torn, trunc, len(garbage))
	}
}

func TestJournalWithoutCaptureModeHasNoFrames(t *testing.T) {
	dir := t.TempDir()
	srv := startServer(t, collect.Config{OutDir: dir})
	snaps := traceWorkload(t, 2)
	if _, err := client(srv, "nocap", 2).Collect(snaps); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	jr, err := framelog.OSDir(filepath.Join(dir, "journal", "nocap")).Open()
	if err != nil {
		t.Fatal(err)
	}
	if entries := jr.ReadAll(); len(entries) != 0 || jr.HasFrames() {
		t.Fatalf("finalize without capture mode left %d entries", len(entries))
	}
}

func TestFindJournals(t *testing.T) {
	dir := t.TempDir()
	srv := startServer(t, collect.Config{OutDir: dir, KeepJournalFrames: true})
	snaps := traceWorkload(t, 2)
	for _, id := range []string{"find-b", "find-a"} {
		if _, err := client(srv, id, 2).Collect(snaps); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	for _, root := range []string{dir, filepath.Join(dir, "journal")} {
		dirs, err := framelog.Find(root)
		if err != nil {
			t.Fatal(err)
		}
		if len(dirs) != 2 || filepath.Base(dirs[0]) != "find-a" || filepath.Base(dirs[1]) != "find-b" {
			t.Fatalf("Find(%s) = %v", root, dirs)
		}
	}
	one, err := framelog.Find(filepath.Join(dir, "journal", "find-a"))
	if err != nil || len(one) != 1 {
		t.Fatalf("single-dir resolve: %v %v", one, err)
	}
	if _, err := framelog.Find(t.TempDir()); err == nil {
		t.Fatal("empty dir resolved to journals")
	}
}

func TestRunsFilteredAndAdminQuery(t *testing.T) {
	srv := startServer(t, collect.Config{})
	snaps := traceWorkload(t, 2)
	for _, id := range []string{"lg-001", "lg-002", "lg-003", "other"} {
		if _, err := client(srv, id, 2).Collect(snaps); err != nil {
			t.Fatal(err)
		}
	}
	out, total := srv.RunsFiltered("lg-", 2)
	if total != 3 || len(out) != 2 || out[0].ID != "lg-001" || out[1].ID != "lg-002" {
		t.Fatalf("RunsFiltered = %v (total %d)", out, total)
	}
	if out, total := srv.RunsFiltered("", 0); total != 4 || len(out) != 4 {
		t.Fatalf("uncapped RunsFiltered returned %d/%d", len(out), total)
	}

	ts := httptest.NewServer(collect.AdminHandler(srv))
	defer ts.Close()
	get := func(url string) (*http.Response, []collect.RunStatus) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var runs []collect.RunStatus
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&runs); err != nil {
				t.Fatal(err)
			}
		}
		return resp, runs
	}
	resp, runs := get(ts.URL + "/runs?prefix=lg-&limit=2")
	if len(runs) != 2 || resp.Header.Get("X-Pilgrim-Total-Runs") != "3" {
		t.Fatalf("admin query: %d runs, total header %q", len(runs), resp.Header.Get("X-Pilgrim-Total-Runs"))
	}
	if resp, runs := get(ts.URL + "/runs"); len(runs) != 4 || resp.Header.Get("X-Pilgrim-Total-Runs") != "4" {
		t.Fatalf("default listing: %d runs", len(runs))
	}
	if resp, _ := get(ts.URL + "/runs?limit=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit got %d", resp.StatusCode)
	}
}
