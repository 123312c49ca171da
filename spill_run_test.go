package pilgrim_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/mpi"
)

// readManifest parses a spill directory's MANIFEST.json.
func readManifest(t *testing.T, dir string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunSimSpillDir runs a local trace through the bounded-memory
// spill finalize: every call must still decode, and the spill
// directory must be left behind as a self-describing, finalized wire
// recording.
func TestRunSimSpillDir(t *testing.T) {
	dir := t.TempDir()
	const n, iters = 6, 10
	opts := pilgrim.Options{SpillDir: dir, MaxResidentSnapshots: 2}
	file, stats, err := pilgrim.RunSim(n, opts, simOpts(), ring(iters))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n * (2 + 2*iters)); stats.TotalCalls != want {
		t.Fatalf("TotalCalls = %d, want %d", stats.TotalCalls, want)
	}
	for r := 0; r < n; r++ {
		calls, err := pilgrim.DecodeRank(file, r)
		if err != nil {
			t.Fatalf("decode rank %d: %v", r, err)
		}
		if len(calls) != 2+2*iters {
			t.Fatalf("rank %d decoded %d calls, want %d", r, len(calls), 2+2*iters)
		}
	}
	m := readManifest(t, filepath.Join(dir, "local"))
	if m["state"] != "finalized" || m["nranks"] != float64(n) {
		t.Fatalf("spill manifest = %v", m)
	}
}

// TestRunSimSpillRefusesUnsafeRunID: with a spill directory, a run ID
// that cannot name a directory inside it (it would climb out, nest, or
// hide) is refused before any rank runs, and nothing is written.
func TestRunSimSpillRefusesUnsafeRunID(t *testing.T) {
	for _, id := range []string{"../x", "a/b", ".hidden"} {
		root := t.TempDir()
		opts := pilgrim.Options{SpillDir: filepath.Join(root, "spill"), CollectorRunID: id}
		var ran atomic.Bool
		file, _, err := pilgrim.RunSim(2, opts, simOpts(), func(p *mpi.Proc) { ran.Store(true) })
		if err == nil || file != nil || ran.Load() {
			t.Errorf("run id %q: err %v, trace %v, ranks ran %v", id, err, file != nil, ran.Load())
		}
		if ents, _ := os.ReadDir(root); len(ents) != 0 {
			t.Errorf("run id %q: %d entries written", id, len(ents))
		}
	}
}

// TestRunSimSpillSalvage checks the failure path still salvages when
// finalizing through the spill, and marks the spill directory
// salvaged.
func TestRunSimSpillSalvage(t *testing.T) {
	dir := t.TempDir()
	opts := pilgrim.Options{SpillDir: dir, MaxResidentSnapshots: 2}
	file, stats, err := pilgrim.RunSim(4, opts, crashPlan(2, 20), ring(50))
	if err == nil {
		t.Fatal("expected the injected crash to fail the run")
	}
	if file == nil {
		t.Fatal("no salvaged trace alongside the error")
	}
	if file.Salvage == nil {
		t.Fatal("salvaged trace carries no salvage info")
	}
	if len(file.Salvage.FailedRanks) != 1 || file.Salvage.FailedRanks[0] != 2 {
		t.Errorf("failed ranks = %v, want [2]", file.Salvage.FailedRanks)
	}
	if stats.TotalCalls <= 0 {
		t.Errorf("salvage captured no calls")
	}
	for r := 0; r < 4; r++ {
		if _, err := pilgrim.DecodeRank(file, r); err != nil {
			t.Fatalf("decode rank %d: %v", r, err)
		}
	}
	m := readManifest(t, filepath.Join(dir, "local"))
	if m["state"] != "salvaged" {
		t.Fatalf("spill manifest state = %v, want salvaged", m["state"])
	}
}
