package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

// asMainEnv makes the test binary behave as pilgrim-top itself, so the
// tests below drive the real main — flags, exit code, stdout and
// stderr — without needing a Go toolchain at test time.
const asMainEnv = "PILGRIM_TOP_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run runs pilgrim-top with args and returns its stdout, stderr and
// exit code.
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

// TestTopOnceShowsCollectedRun: -once against a collector's admin API
// prints one table with a row for the run it collected, finalized with
// every rank in.
func TestTopOnceShowsCollectedRun(t *testing.T) {
	srv, err := collect.Start(collect.Config{Listen: "127.0.0.1:0", OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &collect.Client{
		Addr:  srv.Addr(),
		Run:   collect.RunInfo{RunID: "toprun", WorldSize: 4},
		Retry: collect.RetryPolicy{Seed: 1},
	}
	if _, err := c.Collect(snapshots(t, 4)); err != nil {
		t.Fatal(err)
	}
	admin := httptest.NewServer(collect.AdminHandler(srv))
	defer admin.Close()

	stdout, stderr, code := run(t, "-once", "-admin", admin.URL)
	row := regexp.MustCompile(`(?m)^toprun +finalized +\[#+\] 4/4 `)
	if code != 0 || !strings.HasPrefix(stdout, "pilgrim-top — "+admin.URL) || !row.MatchString(stdout) {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s\nwant exit 0 and a finalized 4/4 row for toprun", code, stderr, stdout)
	}
}

// TestTopOnceUnreachable: -once against an admin address nobody serves
// exits 1 with one pilgrim-top: line.
func TestTopOnceUnreachable(t *testing.T) {
	gone := httptest.NewServer(nil)
	gone.Close()
	stdout, stderr, code := run(t, "-once", "-admin", gone.URL)
	if code != 1 || !strings.HasPrefix(stderr, "pilgrim-top: ") || strings.Count(stderr, "\n") != 1 || stdout != "" {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1 and one pilgrim-top: line", code, stdout, stderr)
	}
}
