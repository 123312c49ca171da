package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/framelog"
	"github.com/hpcrepro/pilgrim/internal/tracetest"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

// asMainEnv makes the test binary behave as pilgrim-collectd itself,
// so the tests below drive the real main — flags, logs, signals, exit
// code, the files it writes — without needing a Go toolchain at test
// time.
const asMainEnv = "PILGRIM_COLLECTD_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon returns pilgrim-collectd as a command with args.
func daemon(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	// A race-enabled binary sleeps a second at exit unless told not to.
	cmd.Env = append(os.Environ(), asMainEnv+"=1", "GORACE=atexit_sleep_ms=0 "+os.Getenv("GORACE"))
	return cmd
}

// tracers runs a 4-rank stencil2d with a tracer per rank.
func tracers(t *testing.T, n int) []*core.Tracer {
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
	return trs
}

// TestDaemonCollectsAndShutsDown drives the daemon end to end: a run
// whose four ranks all report is written to -out-dir with the bytes an
// in-process finalize gives, and a run with one of four ranks in when
// SIGTERM lands is left collecting in its journal, for the next daemon
// to replay, while the daemon exits 0.
func TestDaemonCollectsAndShutsDown(t *testing.T) {
	const n = 4
	trs := tracers(t, n)
	snaps := core.Snapshots(trs)
	f, _ := core.Finalize(trs)
	want := tracetest.Bytes(t, f)

	out := t.TempDir()
	cmd := daemon("-listen", "127.0.0.1:0", "-admin", "", "-out-dir", out)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	addr := make(chan string, 1)
	var logs bytes.Buffer
	go func() {
		ingestOn := regexp.MustCompile(`ingest on (\S+),`)
		sc := bufio.NewScanner(io.TeeReader(stderr, &logs))
		for sc.Scan() {
			if m := ingestOn.FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
			}
		}
		exited <- cmd.Wait()
	}()
	defer cmd.Process.Kill()
	var at string
	select {
	case at = <-addr:
	case err := <-exited:
		t.Fatalf("daemon exited before listening (%v):\n%s", err, logs.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never logged its ingest address")
	}

	c := &collect.Client{Addr: at, Run: collect.RunInfo{RunID: "whole", WorldSize: n}}
	if _, err := c.Collect(snaps); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(out, "whole.pilgrim"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("collected trace is %d bytes, not core.Finalize's %d", len(got), len(want))
	}

	part := &collect.Client{Addr: at, Run: collect.RunInfo{RunID: "part", WorldSize: n}}
	if err := part.SendSnapshot(snaps[0]); err != nil {
		t.Fatal(err)
	}
	part.Close()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v\n%s", err, logs.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon still running 5s after SIGTERM")
	}
	jr, err := framelog.OSDir(filepath.Join(framelog.Root(out), "part")).Open()
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if m := jr.Manifest(); m.State != "collecting" {
		t.Errorf("the unfinished run's manifest says %q, want collecting", m.State)
	}
	if _, err := os.Stat(filepath.Join(out, "part.pilgrim")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the unfinished run has a trace (stat: %v)", err)
	}
}

// TestDaemonRefusesNegativeIdleTimeout: an idle timeout below zero,
// which once put every read deadline in the past and reset each
// connection, exits 1 before the daemon listens.
func TestDaemonRefusesNegativeIdleTimeout(t *testing.T) {
	cmd := daemon("-listen", "127.0.0.1:0", "-admin", "", "-out-dir", t.TempDir(), "-idle-timeout", "-1s")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(stderr.String(), "idle timeout -1s is negative") {
		t.Fatalf("exit %v, stderr %q; want exit 1 and the negative idle timeout named", err, stderr.String())
	}
}
