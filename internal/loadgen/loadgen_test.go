package loadgen_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/loadgen"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/tracetest"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

// traceWorkload runs a real workload on n simulated ranks and returns
// every rank's snapshot (same helper shape as the collect tests).
func traceWorkload(t *testing.T, n int) []*core.Snapshot {
	t.Helper()
	tracers := make([]*core.Tracer, n)
	ics := make([]mpi.Interceptor, n)
	for i := 0; i < n; i++ {
		tracers[i] = core.NewTracer(i, nil, core.Options{})
		ics[i] = tracers[i]
	}
	body, err := workloads.Get("stencil2d", 3, n)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.RunOpt(n, mpi.Options{Interceptors: ics}, func(p *mpi.Proc) {
		core.BindOOB(tracers[p.Rank()], p)
		body(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	snaps := core.Snapshots(tracers)
	return snaps
}

// captureJournal ships snaps through a capture-mode collector and
// returns the run's journal directory.
func captureJournal(t *testing.T, runID string, snaps []*core.Snapshot) string {
	t.Helper()
	dir := t.TempDir()
	src, err := collect.Start(collect.Config{Listen: "127.0.0.1:0", OutDir: dir, KeepJournalFrames: true})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	c := &collect.Client{
		Addr:  src.Addr(),
		Run:   collect.RunInfo{RunID: runID, WorldSize: len(snaps)},
		Retry: collect.RetryPolicy{Seed: 1},
	}
	if _, err := c.Collect(snaps); err != nil {
		t.Fatal(err)
	}
	src.Close()
	return filepath.Join(dir, "journal", runID)
}

func startTarget(t *testing.T, cfg collect.Config) *collect.Server {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	srv, err := collect.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestAmplifyByteIdentity is the tentpole's acceptance test: a journal
// captured from an N-rank run, replayed with amplify 8 at 50× speed,
// must yield 8 finalized runs on a fresh collector, each byte-identical
// to the original local finalize output.
func TestAmplifyByteIdentity(t *testing.T) {
	const world = 3
	snaps := traceWorkload(t, world)
	jdir := captureJournal(t, "src", snaps)
	local, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
	want := tracetest.Bytes(t, local)

	target := startTarget(t, collect.Config{})
	r, err := loadgen.New(loadgen.Config{
		Addr:     target.Addr(),
		Journals: []string{jdir},
		Amplify:  8,
		Speedup:  50,
		Wait:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Streams != 8 || rep.Acks != 8*world || rep.Nacks != 0 || rep.SendErrs != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.WaitedRuns != 8 {
		t.Fatalf("waited %d runs, want 8", rep.WaitedRuns)
	}
	runs := target.Runs()
	if len(runs) != 8 {
		t.Fatalf("target holds %d runs, want 8", len(runs))
	}
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("src-lg%04d", i)
		st, ok := target.Run(id)
		if !ok || st.State != "finalized" {
			t.Fatalf("run %s: %+v (ok=%v)", id, st, ok)
		}
		data, ok := target.TraceBytes(id)
		if !ok || !bytes.Equal(data, want) {
			t.Fatalf("run %s trace differs from local finalize (%d vs %d bytes)", id, len(data), len(want))
		}
	}
}

// TestStragglerHoldbackSalvage: withholding the highest rank entirely
// must land every amplified run in the salvaged phase, with the held
// rank listed in the trace's salvage metadata.
func TestStragglerHoldbackSalvage(t *testing.T) {
	const world = 3
	snaps := traceWorkload(t, world)
	jdir := captureJournal(t, "hold", snaps)

	target := startTarget(t, collect.Config{StragglerDeadline: 300 * time.Millisecond})
	r, err := loadgen.New(loadgen.Config{
		Addr:      target.Addr(),
		Journals:  []string{jdir},
		Amplify:   4,
		Speedup:   50,
		HoldRanks: 1,
		Wait:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Held != 4 { // one held pair per stream
		t.Fatalf("held %d pairs, want 4", rep.Held)
	}
	if rep.Acks != 4*(world-1) {
		t.Fatalf("acks %d, want %d", rep.Acks, 4*(world-1))
	}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("hold-lg%04d", i)
		st, ok := target.Run(id)
		if !ok || st.State != "salvaged" {
			t.Fatalf("run %s state %q, want salvaged", id, st.State)
		}
		h, _ := target.Health(id)
		if h.Phase != "salvaged" {
			t.Fatalf("run %s phase %q", id, h.Phase)
		}
		data, ok := target.TraceBytes(id)
		if !ok {
			t.Fatalf("run %s has no trace", id)
		}
		f, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if f.Salvage == nil || len(f.Salvage.FailedRanks) != 1 || f.Salvage.FailedRanks[0] != world-1 {
			t.Fatalf("run %s salvage metadata = %+v", id, f.Salvage)
		}
	}
}

// TestHoldForCompletes: a straggler held for a delay (not withheld)
// must still complete its run once the hold releases.
func TestHoldForCompletes(t *testing.T) {
	snaps := traceWorkload(t, 2)
	jdir := captureJournal(t, "late", snaps)
	target := startTarget(t, collect.Config{})
	r, err := loadgen.New(loadgen.Config{
		Addr:      target.Addr(),
		Journals:  []string{jdir},
		Amplify:   2,
		Speedup:   50,
		HoldRanks: 1,
		HoldFor:   50 * time.Millisecond,
		Wait:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acks != 4 || rep.WaitedRuns != 2 {
		t.Fatalf("report: %+v", rep)
	}
	for _, st := range target.Runs() {
		if st.State != "finalized" {
			t.Fatalf("run %s state %q", st.ID, st.State)
		}
	}
}

// TestNackCountedNotFatal: amplification past the collector's max-runs
// cap must abort the excess streams with counted NACKs and still
// return a nil error — admission pressure is a result, not a failure.
func TestNackCountedNotFatal(t *testing.T) {
	const world = 2
	snaps := traceWorkload(t, world)
	jdir := captureJournal(t, "cap", snaps)

	// MaxRuns 2 and one rank withheld per stream: admitted runs never
	// leave stateCollecting, so every stream past the first two is
	// deterministically NACKed.
	target := startTarget(t, collect.Config{MaxRuns: 2})
	r, err := loadgen.New(loadgen.Config{
		Addr:      target.Addr(),
		Journals:  []string{jdir},
		Amplify:   6,
		Speedup:   50,
		HoldRanks: 1,
		MaxConns:  1, // serialize streams so admission order is deterministic
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nacks != 4 || rep.NackedStreams != 4 {
		t.Fatalf("nacks %d (streams %d), want 4", rep.Nacks, rep.NackedStreams)
	}
	if rep.Acks != 2 { // two admitted streams × one unheld rank
		t.Fatalf("acks %d, want 2", rep.Acks)
	}
}

// TestChaosDeterministic: the same seed must inject exactly the same
// chaos, and drops surface as missing ranks (duplicates as dup-acks).
func TestChaosDeterministic(t *testing.T) {
	snaps := traceWorkload(t, 4)
	jdir := captureJournal(t, "chaos", snaps)
	run := func() *loadgen.Report {
		target := startTarget(t, collect.Config{StragglerDeadline: 400 * time.Millisecond})
		r, err := loadgen.New(loadgen.Config{
			Addr:     target.Addr(),
			Journals: []string{jdir},
			Amplify:  3,
			Speedup:  50,
			Seed:     7,
			Drop:     0.3,
			Dup:      0.3,
			Reorder:  0.3,
			Jitter:   0.2,
			Wait:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Dropped != b.Dropped || a.Duped != b.Duped || a.Reordered != b.Reordered {
		t.Fatalf("chaos not deterministic: %+v vs %+v", a, b)
	}
	if a.Dropped == 0 || a.Duped == 0 {
		t.Fatalf("chaos probabilities 0.3 over 12 pairs injected nothing: %+v", a)
	}
	if a.AckDups == 0 {
		t.Fatalf("duplicate sends earned no AckDuplicate: %+v", a)
	}
}

// TestOpenLoopRate: open-loop pacing must stretch the replay to
// roughly the offered rate when the collector can keep up.
func TestOpenLoopRate(t *testing.T) {
	snaps := traceWorkload(t, 2)
	jdir := captureJournal(t, "rate", snaps)
	target := startTarget(t, collect.Config{})
	r, err := loadgen.New(loadgen.Config{
		Addr:     target.Addr(),
		Journals: []string{jdir},
		Amplify:  5,
		Rate:     100, // 10 pairs at 100/s ≈ 100ms floor
		Wait:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OfferedRatePps != 100 {
		t.Fatalf("offered rate %v", rep.OfferedRatePps)
	}
	if rep.Acks != 10 {
		t.Fatalf("acks %d, want 10", rep.Acks)
	}
	if el := time.Since(t0); el < 80*time.Millisecond {
		t.Fatalf("open-loop replay of 10 pairs at 100/s took only %s", el)
	}
}

func TestNewRejectsEmptyJournal(t *testing.T) {
	snaps := traceWorkload(t, 2)
	dir := t.TempDir()
	src, err := collect.Start(collect.Config{Listen: "127.0.0.1:0", OutDir: dir}) // no capture mode
	if err != nil {
		t.Fatal(err)
	}
	c := &collect.Client{Addr: src.Addr(), Run: collect.RunInfo{RunID: "empty", WorldSize: 2}}
	if _, err := c.Collect(snaps); err != nil {
		t.Fatal(err)
	}
	src.Close()
	_, err = loadgen.New(loadgen.Config{Addr: "127.0.0.1:1", Journals: []string{filepath.Join(dir, "journal", "empty")}})
	if err == nil {
		t.Fatal("New accepted a frameless journal")
	}
}
