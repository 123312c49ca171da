package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/loadgen"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

// asMainEnv makes the test binary behave as pilgrim-loadgen itself, so
// the tests below drive the real main — flags, exit code, stdout and
// stderr — without needing a Go toolchain at test time.
const asMainEnv = "PILGRIM_LOADGEN_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run runs pilgrim-loadgen with args and returns its stdout, stderr
// and exit code.
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	// A race-enabled binary sleeps a second at exit unless told not to.
	cmd.Env = append(os.Environ(), asMainEnv+"=1", "GORACE=atexit_sleep_ms=0 "+os.Getenv("GORACE"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), code
}

// snapshots traces stencil2d on n ranks and returns each rank's
// snapshot.
func snapshots(t *testing.T, n int) []*core.Snapshot {
	t.Helper()
	trs := make([]*core.Tracer, n)
	ics := make([]mpi.Interceptor, n)
	for i := range trs {
		trs[i] = core.NewTracer(i, nil, core.Options{})
		ics[i] = trs[i]
	}
	body, err := workloads.Get("stencil2d", 3, n)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.RunOpt(n, mpi.Options{Interceptors: ics}, func(p *mpi.Proc) {
		core.BindOOB(trs[p.Rank()], p)
		body(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	snaps := core.Snapshots(trs)
	return snaps
}

// TestLoadgenReplaysCapture: a journal captured by a collector that
// keeps its frames, replayed into a second collector with -wait, exits
// 0; its report counts every pair acked and the run waited for, and
// the second collector holds the run finalized.
func TestLoadgenReplaysCapture(t *testing.T) {
	const world = 4
	capDir := t.TempDir()
	src, err := collect.Start(collect.Config{Listen: "127.0.0.1:0", OutDir: capDir, KeepJournalFrames: true})
	if err != nil {
		t.Fatal(err)
	}
	c := &collect.Client{
		Addr:  src.Addr(),
		Run:   collect.RunInfo{RunID: "src", WorldSize: world},
		Retry: collect.RetryPolicy{Seed: 1},
	}
	if _, err := c.Collect(snapshots(t, world)); err != nil {
		t.Fatal(err)
	}
	src.Close()

	target, err := collect.Start(collect.Config{Listen: "127.0.0.1:0", OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	report := filepath.Join(t.TempDir(), "report.json")
	_, stderr, code := run(t, "-addr", target.Addr(), "-journal", capDir, "-wait", "-q", "-report", report)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q; want exit 0", code, stderr)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Streams != 1 || rep.PairsPlanned != world || rep.Acks != world || rep.Nacks != 0 || rep.WaitedRuns != 1 {
		t.Errorf("report %s: want 1 stream, %d pairs planned and acked, no NACK, 1 run waited for", data, world)
	}
	if st, ok := target.Run("src"); !ok || st.State != "finalized" || st.Received != world {
		t.Errorf("target holds run src as %+v (known %v), want finalized with %d ranks", st, ok, world)
	}
}
