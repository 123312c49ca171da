package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	pilgrim "github.com/hpcrepro/pilgrim"
)

// asMainEnv makes the test binary behave as pilgrim-trace itself, so
// the tests below drive the real main — flags, exit code, stdout, the
// file it saves — without needing a Go toolchain at test time.
const asMainEnv = "PILGRIM_TRACE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run runs pilgrim-trace with args and returns its stdout, stderr and
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

// TestTraceSavesOneStoredForm: a 16-rank stencil2d run with -o saves a
// PILGRIM7 file whose body is raw, and the same run with -timing lossy
// a PILGRIM8 file whose body is deflated. The tool reports the file's
// size, and each file loads and writes back to its own bytes.
func TestTraceSavesOneStoredForm(t *testing.T) {
	for _, c := range []struct{ timing, magic, form string }{
		{"aggregated", "PILGRIM7", "raw"},
		{"lossy", "PILGRIM8", "deflated"},
	} {
		path := filepath.Join(t.TempDir(), c.timing+".pilgrim")
		out, stderr, code := run(t, "-workload", "stencil2d", "-procs", "16", "-timing", c.timing, "-o", path)
		if code != 0 {
			t.Fatalf("-timing %s: exit %d, stderr %q", c.timing, code, stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte(c.magic)) {
			t.Errorf("-timing %s: the file starts %q, want %s", c.timing, data[:min(8, len(data))], c.magic)
		}
		if want := fmt.Sprintf("trace file: %s (%d bytes,", path, len(data)); !strings.Contains(out, want) {
			t.Errorf("-timing %s: no %q in:\n%s", c.timing, want, out)
		}
		f, err := pilgrim.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if st := f.BodyStorage(); st.Form != c.form {
			t.Errorf("-timing %s: the body is stored %+v", c.timing, st)
		}
		var again bytes.Buffer
		if _, err := f.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Errorf("-timing %s: loaded and written again, %d bytes, not the file's %d", c.timing, again.Len(), len(data))
		}
	}
}

// TestTraceRefusesBadOptions: options no run can trace with exit 1
// with the reason on stderr and leave no file: a negative -max-resident
// (once run as a cap of a sixteenth of the ranks), and a lossy timing
// base not above 1.
func TestTraceRefusesBadOptions(t *testing.T) {
	for _, c := range []struct {
		args []string
		why  string
	}{
		{[]string{"-workload", "cg", "-procs", "8", "-iters", "2", "-max-resident", "-4"}, "max resident snapshots -4 is negative"},
		{[]string{"-workload", "stencil2d", "-procs", "4", "-timing", "lossy", "-timing-base", "1"}, "is not finite and > 1"},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "t.pilgrim")
		args := append(c.args, "-spill-dir", filepath.Join(dir, "spill"), "-o", path)
		_, stderr, code := run(t, args...)
		if code != 1 || !strings.Contains(stderr, c.why) {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 and %q", c.args, code, stderr, c.why)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%v: a trace was written (stat: %v)", c.args, err)
		}
	}
}

// TestTraceTelemetryFlags: the tool serves and reports its own
// collector. -metrics-addr on an ephemeral port is accepted, -progress
// prints progress lines to stderr while the run goes on, and
// -metrics-json writes a report whose tracer call counter is the
// run's calls.
func TestTraceTelemetryFlags(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "metrics.json")
	out, stderr, code := run(t, "-workload", "stencil2d", "-procs", "8", "-iters", "200",
		"-metrics-addr", "127.0.0.1:0", "-progress", "1ms", "-metrics-json", report,
		"-o", filepath.Join(dir, "t.pilgrim"))
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stderr, "pilgrim: +") {
		t.Errorf("-progress 1ms printed no progress line; stderr %q", stderr)
	}
	var calls int64
	if _, err := fmt.Sscanf(out, "traced %d MPI calls", &calls); err != nil || calls == 0 {
		t.Fatalf("no call count in %q (%v)", out, err)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep pilgrim.MetricsReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if got := rep.Counters["pilgrim_tracer_calls_total"]; got != calls {
		t.Errorf("the report counts %d tracer calls, the run traced %d", got, calls)
	}
}
